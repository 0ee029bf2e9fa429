package serve

import (
	"repro/internal/feed"
	"repro/internal/wire"
)

// The JSON schema of the convoyd HTTP API lives in internal/wire — the
// canonical vocabulary shared with the CLIs (convoyfind, convoyload), the
// feed runtime (internal/feed) and the coordinator↔shard RPC
// (internal/dist). This file aliases it into the serve namespace, so code
// that embeds the server keeps spelling serve.FeedSpec and friends.
type (
	ConvoyJSON = wire.ConvoyJSON
	TickBatch  = wire.TickBatch
	StatsJSON  = wire.StatsJSON
	ErrorBody  = wire.ErrorBody

	ExplainJSON = wire.ExplainJSON

	TicksResponse        = wire.TicksResponse
	TicksError           = wire.TicksError
	FeedSpec             = wire.FeedSpec
	MonitorSpec          = wire.MonitorSpec
	MonitorCloseResponse = wire.MonitorCloseResponse
	FeedStatus           = wire.FeedStatus
	Event                = wire.Event
	EventsResponse       = wire.EventsResponse
	FeedCloseResponse    = wire.FeedCloseResponse
	WALStatusJSON        = wire.WALStatusJSON

	QueryRequest         = wire.QueryRequest
	QueryResponse        = wire.QueryResponse
	HistoryQueryResponse = wire.HistoryQueryResponse

	// HistoryQueryRequest is the body of POST /v1/feeds/{name}/query: the
	// canonical query spec applied to the tick window a durable feed's WAL
	// retains (From/To delimit the window; ticks compacted past the
	// retention horizon are gone and silently excluded). The default
	// algorithm is cmc — the canonical semantics for a replayed live stream;
	// the CuTS family is opt-in.
	HistoryQueryRequest = wire.QuerySpec
)

// Algo names accepted by the query engine and convoyfind.
const (
	AlgoCMC      = wire.AlgoCMC
	AlgoCuTS     = wire.AlgoCuTS
	AlgoCuTSPlus = wire.AlgoCuTSPlus
	AlgoCuTSStar = wire.AlgoCuTSStar
)

// DefaultMonitorID names the monitor created implicitly from a feed's
// creation parameters.
const DefaultMonitorID = feed.DefaultMonitorID
