package serve

import (
	"log/slog"
	"runtime"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Config tunes the server. The zero value is usable: every field has a
// sensible default applied by New.
type Config struct {
	// MaxFeeds caps the number of concurrently registered feeds; feed
	// creation beyond the cap fails with 429. Default 1024.
	MaxFeeds int
	// MaxMonitorsPerFeed caps the standing convoy queries registered on
	// one feed (the implicit default monitor counts). Monitors sharing a
	// clustering key (e, m) cost one DBSCAN pass per tick together, but
	// each still chains its own candidates. Default 64.
	MaxMonitorsPerFeed int
	// FeedBuffer is the depth of each feed's command mailbox — the number
	// of in-flight ingest/poll requests a feed absorbs before further
	// senders block (the ingestion backpressure point). Default 64.
	FeedBuffer int
	// EventBuffer is the per-subscriber event channel depth for the NDJSON
	// tail endpoint. A subscriber that falls this many events behind is
	// disconnected (it can reconnect with ?since=). Default 256.
	EventBuffer int
	// HistoryLimit is the number of closed-convoy events each feed retains
	// for polling and replay; older events are dropped. Default 1024.
	HistoryLimit int
	// IdleTimeout evicts feeds that have received no request for this
	// long, draining them like a DELETE. 0 disables eviction.
	IdleTimeout time.Duration
	// QueryWorkers bounds the number of batch queries executing
	// concurrently; excess queries wait. Default GOMAXPROCS.
	QueryWorkers int
	// MaxWorkersPerQuery caps the per-query "workers" request field — the
	// number of goroutines one discovery run may use per pipeline stage.
	// Clients asking for more are clamped, not rejected. Default
	// GOMAXPROCS; negative forces every query serial.
	MaxWorkersPerQuery int
	// QueryTimeout caps the wall time of one batch query — queueing plus
	// discovery. A query past the cap aborts its clustering pipeline,
	// frees its worker slot and answers 504. Clients may request tighter
	// deadlines per query via the timeout_ms field; this is the server's
	// upper bound on both. 0 disables the cap.
	QueryTimeout time.Duration
	// CacheEntries is the capacity of the batch-query LRU cache, keyed by
	// (database digest, params, algorithm). 0 means the default 64;
	// negative disables caching.
	CacheEntries int
	// DataDir, when non-empty, allows POST /v1/query to reference
	// databases by file path relative to this directory. Empty disables
	// path references (uploads only).
	DataDir string
	// WALDir, when non-empty, makes feeds durable: every feed owns a
	// write-ahead log under WALDir/feeds/<name>, every accepted tick batch
	// is logged before it is applied, monitor registrations are journaled,
	// and New replays the logs so a restarted server is state-identical to
	// one that never stopped. Empty (the default, and convoyd without
	// -data-dir or with -no-wal) keeps feeds purely in-memory.
	WALDir string
	// WALFsync is the tick-record durability policy (wal.FsyncAlways,
	// the zero value and safest; FsyncInterval; FsyncNever). convoyd maps
	// -wal-fsync here.
	WALFsync wal.FsyncPolicy
	// WALFsyncInterval is the timer period under wal.FsyncInterval.
	// Default 100ms.
	WALFsyncInterval time.Duration
	// WALSegmentBytes rotates a feed's active WAL segment beyond this
	// size. Default 4 MiB.
	WALSegmentBytes int64
	// WALSegmentAge rotates a feed's active WAL segment after this long
	// regardless of size. 0 disables age rotation.
	WALSegmentAge time.Duration
	// WALRetainTicks, when > 0, compacts WAL segments wholly older than
	// lastTick−WALRetainTicks after each rotation. Bounds disk and the
	// historical-query window; convoys longer than the horizon recover
	// truncated. 0 retains everything.
	WALRetainTicks int64
	// MaxBodyBytes caps request bodies (tick batches and uploaded
	// databases). Default 64 MiB.
	MaxBodyBytes int64
	// MaxEdgesPerTick caps the proximity edges one tick batch may carry
	// (the contact graph a proxgraph monitor clusters is quadratic in the
	// worst case, so the wire bounds it). Default 65536.
	MaxEdgesPerTick int
	// Metrics receives the server's instrument families (the convoyd_*
	// catalogue; see serveMetrics). Nil means a private registry: the
	// instruments still update and Server.Snapshot/GET /v1/stats still
	// work, but nothing is exposed until MetricsRegistry().Handler() is
	// mounted. A registry must not be shared between two servers —
	// family names would collide.
	Metrics *metrics.Registry
	// Logger receives the server's structured records: request logs for
	// failures and slow requests, feed lifecycle events, janitor evictions.
	// Every record carries the request and trace IDs of the request that
	// produced it. Nil discards everything (the test-quiet default);
	// convoyd wires a text or JSON handler here per its -log-format flag.
	Logger *slog.Logger
	// Tracer samples request traces. Incoming W3C traceparent headers
	// continue the remote trace; sampled (or ?explain=true, or slower than
	// SlowQuery) requests record a span tree retained in the tracer's ring
	// and served by its Handler (convoyd mounts it at /debug/traces). Nil
	// means a private tracer with the default 0 sample ratio — explain and
	// slow-query forcing still work, background sampling is off.
	Tracer *trace.Tracer
	// SlowQuery, when > 0, forces every request to be traced and logs one
	// structured record (with the full span tree) for each request whose
	// wall time exceeds it. 0 disables slow-request logging.
	SlowQuery time.Duration
	// Shards, when non-empty, turns this server into a distributed-query
	// coordinator (convoyd -shards): every batch query's time range is
	// split into len(Shards) overlapping windows, fanned out over these
	// shard base URLs via POST /v1/shard/query, and the partial answers
	// are merged into the exact global answer. The fan-out runs under the
	// same worker pool, LRU cache and in-flight dedup as local queries.
	// Mutually exclusive with ShardMode.
	Shards []string
	// ShardMode enables POST /v1/shard/query (convoyd -shard): the
	// versioned RPC a coordinator uses to assign this server one window of
	// a distributed query. Off (the default), the route answers 403.
	ShardMode bool

	// metrics is the instrument bundle built over Metrics (or a private
	// registry) by withDefaults and threaded through the registry, feeds
	// and query engine.
	metrics *serveMetrics
}

// withDefaults returns the config with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.MaxFeeds <= 0 {
		c.MaxFeeds = 1024
	}
	if c.MaxMonitorsPerFeed <= 0 {
		c.MaxMonitorsPerFeed = 64
	}
	if c.FeedBuffer <= 0 {
		c.FeedBuffer = 64
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	if c.HistoryLimit <= 0 {
		c.HistoryLimit = 1024
	}
	if c.QueryWorkers <= 0 {
		c.QueryWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxWorkersPerQuery == 0 {
		c.MaxWorkersPerQuery = runtime.GOMAXPROCS(0)
	}
	if c.MaxWorkersPerQuery < 0 {
		c.MaxWorkersPerQuery = 1
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxEdgesPerTick <= 0 {
		c.MaxEdgesPerTick = 65536
	}
	if c.WALFsyncInterval <= 0 {
		c.WALFsyncInterval = 100 * time.Millisecond
	}
	if c.WALSegmentBytes <= 0 {
		c.WALSegmentBytes = 4 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.Tracer == nil {
		c.Tracer = trace.NewTracer()
	}
	if c.metrics == nil {
		reg := c.Metrics
		if reg == nil {
			reg = metrics.NewRegistry()
		}
		c.metrics = newServeMetrics(reg)
	}
	return c
}
