package serve

import (
	"encoding/json"
	"time"

	"repro/internal/model"
	"repro/internal/wire"
)

// The JSON schema of the convoyd HTTP API lives in internal/wire — the
// canonical vocabulary shared with the CLIs (convoyfind, convoyload) and
// the coordinator↔shard RPC (internal/dist). This file aliases the shared
// types into the serve namespace and adds the server-only request/response
// shapes (feed lifecycle, statuses, events).

// Shared wire vocabulary (see internal/wire).
type (
	ParamsJSON   = wire.ParamsJSON
	ConvoyJSON   = wire.ConvoyJSON
	Position     = wire.Position
	EdgeJSON     = wire.EdgeJSON
	TickBatch    = wire.TickBatch
	TicksRequest = wire.TicksRequest
	StatsJSON    = wire.StatsJSON
	ErrorJSON    = wire.ErrorJSON
	ErrorBody    = wire.ErrorBody

	ExplainJSON      = wire.ExplainJSON
	ExplainStageJSON = wire.ExplainStageJSON
)

// Algo names accepted by the query engine and convoyfind.
const (
	AlgoCMC      = wire.AlgoCMC
	AlgoCuTS     = wire.AlgoCuTS
	AlgoCuTSPlus = wire.AlgoCuTSPlus
	AlgoCuTSStar = wire.AlgoCuTSStar
)

// TicksResponse reports the outcome of a tick ingestion.
type TicksResponse struct {
	// Accepted counts the ticks applied (all of them on success).
	Accepted int `json:"accepted"`
	// Closed lists the convoys that closed during these ticks.
	Closed []ConvoyJSON `json:"closed"`
}

// TicksError is the error body of a failed tick ingestion: the uniform
// envelope's error object plus the resume cursor. The accepted prefix of
// the batch is permanently applied to the feed, so the client needs
// Accepted (and any Closed convoys it produced) to know where to resume.
type TicksError struct {
	Error    ErrorBody    `json:"error"`
	Accepted int          `json:"accepted"`
	Closed   []ConvoyJSON `json:"closed"`
}

// FeedSpec is the body of POST /v1/feeds. The params become the feed's
// "default" monitor; further monitors are added under
// /v1/feeds/{name}/monitors.
type FeedSpec struct {
	Name   string     `json:"name"`
	Params ParamsJSON `json:"params"`
	// Clusterer selects the default monitor's clustering backend: "dbscan"
	// (default) or "proxgraph" (per-tick proximity edges, see
	// TickBatch.Edges).
	Clusterer string `json:"clusterer,omitempty"`
}

// MonitorSpec is the body of POST /v1/feeds/{name}/monitors: one standing
// convoy query to register on the feed.
type MonitorSpec struct {
	ID     string     `json:"id"`
	Params ParamsJSON `json:"params"`
	// Clusterer selects the monitor's clustering backend ("" = dbscan).
	// Monitors share a clustering pass only when (e, m) AND the backend
	// match.
	Clusterer string `json:"clusterer,omitempty"`
}

// MonitorStatus describes one monitor of a feed (GET
// /v1/feeds/{name}/monitors and .../monitors/{id}; embedded in FeedStatus).
type MonitorStatus struct {
	ID     string     `json:"id"`
	Feed   string     `json:"feed"`
	Params ParamsJSON `json:"params"`
	// Clusterer is the monitor's clustering backend name.
	Clusterer string `json:"clusterer"`
	// LastTick is the most recent tick this monitor advanced over; null
	// before its first (monitors added mid-stream start at the next tick).
	LastTick *model.Tick `json:"last_tick,omitempty"`
	// Live counts the monitor's open convoy candidates.
	Live int `json:"live"`
	// Closed counts the events this monitor has emitted.
	Closed uint64 `json:"closed"`
}

// MonitorCloseResponse is the answer of DELETE /v1/feeds/{name}/monitors/{id}:
// the monitor's still-open convoys that satisfied the lifetime bound (also
// appended to the feed's event log, tagged with the monitor ID).
type MonitorCloseResponse struct {
	ID      string       `json:"id"`
	Drained []ConvoyJSON `json:"drained"`
}

// FeedStatus describes one feed (GET /v1/feeds and GET /v1/feeds/{name}).
type FeedStatus struct {
	Name string `json:"name"`
	// Params are the feed's creation parameters (the default monitor's).
	Params ParamsJSON `json:"params"`
	// Clusterer is the feed's creation backend (the default monitor's).
	Clusterer string `json:"clusterer"`
	// LastTick is the most recently ingested tick; null before the first.
	LastTick *model.Tick `json:"last_tick,omitempty"`
	// Ticks counts ingested tick batches.
	Ticks int64 `json:"ticks"`
	// Objects counts distinct object labels seen.
	Objects int `json:"objects"`
	// Live counts open convoy candidates across all monitors.
	Live int `json:"live"`
	// Closed counts convoys emitted so far (all monitors).
	Closed uint64 `json:"closed"`
	// NextSeq is the sequence number the next closed convoy will get;
	// pass it as ?since= to poll only new events.
	NextSeq uint64 `json:"next_seq"`
	// Monitors lists the feed's standing queries, ID-sorted.
	Monitors []MonitorStatus `json:"monitors"`
	// ClusterGroups counts the distinct clustering keys (e, m, backend)
	// among the live monitors — the number of clustering passes each tick
	// costs.
	ClusterGroups int `json:"cluster_groups"`
	// ClusterPasses counts snapshot clustering passes over the feed's
	// life: ticks × distinct keys, not ticks × monitors.
	ClusterPasses int64 `json:"cluster_passes"`
	// ClusterPassesFull / ClusterPassesIncremental split ClusterPasses by
	// how each pass was answered: from-scratch DBSCAN versus the
	// incremental engine patching the previous tick's structure.
	ClusterPassesFull        int64 `json:"cluster_passes_full"`
	ClusterPassesIncremental int64 `json:"cluster_passes_incremental"`
	// ObjectsReclustered counts the objects whose neighborhoods were
	// recomputed across all passes; ReuseRatio is the fraction of object
	// appearances that were reused instead (1 − reclustered/seen, 0
	// before any clustering). A low-churn feed sits near 1.
	ObjectsReclustered int64   `json:"objects_reclustered"`
	ReuseRatio         float64 `json:"reuse_ratio"`
}

// Event is one closed convoy on a feed's event log, as served by
// GET /v1/feeds/{name}/convoys and streamed by GET /v1/feeds/{name}/events.
type Event struct {
	// Seq numbers events per feed from 0 upward.
	Seq uint64 `json:"seq"`
	// Feed is the emitting feed's name.
	Feed string `json:"feed"`
	// Monitor is the ID of the monitor whose query closed this convoy.
	Monitor string `json:"monitor,omitempty"`
	// Convoy is the closed convoy.
	Convoy ConvoyJSON `json:"convoy"`
}

// EventsResponse is the poll answer of GET /v1/feeds/{name}/convoys.
type EventsResponse struct {
	Events []Event `json:"events"`
	// NextSeq is the ?since= value that continues after these events.
	NextSeq uint64 `json:"next_seq"`
}

// FeedCloseResponse is the answer of DELETE /v1/feeds/{name}: the convoys
// still open at deletion time that satisfied the lifetime bound.
type FeedCloseResponse struct {
	Drained []ConvoyJSON `json:"drained"`
}

// QueryRequest is the JSON body form of POST /v1/query: the canonical
// wire.QuerySpec (m/k/e, algorithm, clusterer, window, execution knobs —
// every field promoted here) plus a Path referencing a database file under
// the server's data directory. Uploads instead send the raw CSV/CTB bytes
// with the same spec in the URL query string.
type QueryRequest struct {
	wire.QuerySpec
	// Path locates the database file under the server's data directory.
	Path string `json:"path"`
}

// UnmarshalJSON decodes the embedded spec (with every legacy spelling the
// canonical decoder accepts) plus the path. Without this, the embedded
// spec's own UnmarshalJSON would be promoted and the path silently
// dropped.
func (r *QueryRequest) UnmarshalJSON(data []byte) error {
	if err := json.Unmarshal(data, &r.QuerySpec); err != nil {
		return err
	}
	var p struct {
		Path string `json:"path"`
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	r.Path = p.Path
	return nil
}

// MarshalJSON inlines the spec's fields and the path into one object —
// the inverse of UnmarshalJSON.
func (r QueryRequest) MarshalJSON() ([]byte, error) {
	b, err := json.Marshal(r.QuerySpec)
	if err != nil {
		return nil, err
	}
	if r.Path == "" {
		return b, nil
	}
	p, err := json.Marshal(struct {
		Path string `json:"path"`
	}{r.Path})
	if err != nil {
		return nil, err
	}
	if len(b) <= 2 { // "{}"
		return p, nil
	}
	// {...spec} + {"path":...} → {...spec,"path":...}
	out := append(b[:len(b)-1], ',')
	return append(out, p[1:]...), nil
}

// QueryResponse is the answer of POST /v1/query.
type QueryResponse struct {
	Convoys []ConvoyJSON `json:"convoys"`
	Params  ParamsJSON   `json:"params"`
	Algo    string       `json:"algo"`
	// Clusterer is the clustering backend the run used; present only for
	// non-default backends (a plain DBSCAN answer omits it).
	Clusterer string `json:"clusterer,omitempty"`
	// From and To echo the request's window bounds when it was windowed.
	From *model.Tick `json:"from,omitempty"`
	To   *model.Tick `json:"to,omitempty"`
	// Stats carries the CuTS run statistics (absent for CMC).
	Stats *StatsJSON `json:"stats,omitempty"`
	// Digest identifies the database contents (sha256, hex).
	Digest string `json:"digest"`
	// Cache is "hit" (served from the LRU), "miss" (computed by this
	// request) or "dedup" (this request joined an identical concurrent
	// query's in-flight run and shares its answer).
	Cache string `json:"cache"`
	// Shards counts the shard partials a coordinator merged for this
	// answer (absent on single-node runs).
	Shards int `json:"shards,omitempty"`
	// ElapsedMS is the wall time of this request's engine work (0 on a
	// cache hit).
	ElapsedMS float64 `json:"elapsed_ms"`
	// Explain is the per-stage timing profile of this request's discovery
	// run; present only when the request asked explain=true.
	Explain *ExplainJSON `json:"explain,omitempty"`
}

// HistoryQueryRequest is the body of POST /v1/feeds/{name}/query: the
// canonical query spec applied to the tick window a durable feed's WAL
// retains (From/To delimit the window; ticks compacted past the retention
// horizon are gone and silently excluded). The default algorithm is cmc —
// the canonical semantics for a replayed live stream; the CuTS family is
// opt-in and dbscan-only.
type HistoryQueryRequest = wire.QuerySpec

// HistoryQueryResponse is the answer of POST /v1/feeds/{name}/query.
type HistoryQueryResponse struct {
	Convoys []ConvoyJSON `json:"convoys"`
	Params  ParamsJSON   `json:"params"`
	Algo    string       `json:"algo"`
	// Clusterer is present only for non-default backends.
	Clusterer string `json:"clusterer,omitempty"`
	// From and To echo the request's window bounds.
	From *model.Tick `json:"from,omitempty"`
	To   *model.Tick `json:"to,omitempty"`
	// Ticks counts the logged batches the window covered; Objects the
	// distinct labels among them.
	Ticks   int `json:"ticks"`
	Objects int `json:"objects"`
	// Stats carries the CuTS run statistics (absent for CMC).
	Stats *StatsJSON `json:"stats,omitempty"`
	// ElapsedMS is the wall time of the window read plus the discovery run.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Explain is the per-stage timing profile, present only when the request
	// asked for it ("explain": true).
	Explain *ExplainJSON `json:"explain,omitempty"`
}

// WALStatusJSON is the answer of GET /v1/feeds/{name}/wal: one durable
// feed's log shape, append/fsync counters and recovery stats.
type WALStatusJSON struct {
	Feed string `json:"feed"`
	// Fsync is the tick-record durability policy name (always, interval,
	// never).
	Fsync string `json:"fsync"`
	// Segments, Bytes and Records describe the retained log (compacted
	// segments excluded).
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	Records  int64 `json:"records"`
	// FirstTick and LastTick delimit the retained tick range; null while
	// the log holds no ticks.
	FirstTick *model.Tick `json:"first_tick,omitempty"`
	LastTick  *model.Tick `json:"last_tick,omitempty"`
	// AppendedRecords and AppendedBytes count appends since this process
	// opened the log; CompactedSegments the segments dropped past the
	// retention horizon.
	AppendedRecords   int64 `json:"appended_records"`
	AppendedBytes     int64 `json:"appended_bytes"`
	CompactedSegments int64 `json:"compacted_segments"`
	// LastSync is the RFC 3339 time of the last fsync of the active
	// segment; absent before the first.
	LastSync *time.Time `json:"last_sync,omitempty"`
	// Recovery is present when this feed was rebuilt from its WAL at server
	// start.
	Recovery *WALRecoveryJSON `json:"recovery,omitempty"`
}

// WALRecoveryJSON summarizes the replay that resurrected a feed.
type WALRecoveryJSON struct {
	ReplayedTicks int64 `json:"replayed_ticks"`
	// SkippedTicks counts logged batches dropped as already-applied
	// duplicates (at-least-once ingestion across a crash).
	SkippedTicks int64 `json:"skipped_ticks"`
	ReplayedOps  int64 `json:"replayed_ops"`
	// TruncatedBytes is the torn tail dropped from the segments and the
	// spec journal — > 0 means the previous process died mid-append.
	TruncatedBytes int64   `json:"truncated_bytes"`
	DurationMS     float64 `json:"duration_ms"`
}
