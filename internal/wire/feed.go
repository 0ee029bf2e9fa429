package wire

import (
	"time"

	"repro/internal/model"
)

// The feed half of the convoyd API: feed and monitor lifecycle, statuses,
// closed-convoy events and the durable-log status. The feed runtime
// (internal/feed) answers in these shapes and the HTTP layer serves them
// as they are, so a client (convoyload, the ladder) needs this package
// and nothing of the server.

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
	// Clusterer is a legacy spelling: "" or "dbscan", anything else is
	// refused (CheckClusterer).
	Clusterer string `json:"clusterer,omitempty"`
}

// MonitorSpec is the body of POST /v1/feeds/{name}/monitors: one standing
// convoy query to register on the feed.
type MonitorSpec struct {
	ID     string     `json:"id"`
	Params ParamsJSON `json:"params"`
	// Clusterer is a legacy spelling, as on FeedSpec.
	Clusterer string `json:"clusterer,omitempty"`
}

// MonitorStatus describes one monitor of a feed (GET
// /v1/feeds/{name}/monitors and .../monitors/{id}; embedded in FeedStatus).
type MonitorStatus struct {
	ID     string     `json:"id"`
	Feed   string     `json:"feed"`
	Params ParamsJSON `json:"params"`
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
	// ClusterGroups counts the distinct clustering keys (e, m) among the
	// live monitors — the number of clustering passes each tick costs.
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
