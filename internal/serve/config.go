package serve

import (
	"log/slog"
	"runtime"
	"time"

	"repro/internal/feed"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Config tunes the server. The zero value is usable: every field has a
// sensible default applied by New.
type Config struct {
	// MaxFeeds, MaxMonitorsPerFeed, FeedBuffer, EventBuffer and
	// HistoryLimit are the feed runtime's knobs of the same names;
	// feed.Config documents them and holds their defaults. Over HTTP the
	// feed and monitor caps answer 429, and a subscriber EventBuffer events
	// behind is cut from the NDJSON tail (it reconnects with ?since=).
	MaxFeeds           int
	MaxMonitorsPerFeed int
	FeedBuffer         int
	EventBuffer        int
	HistoryLimit       int
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
	// WALDir, when non-empty, makes feeds durable (feed.Config.WALDir), and
	// New replays the logs under it so a restarted server is
	// state-identical to one that never stopped. Empty (the default, and
	// convoyd without -data-dir) keeps feeds in memory.
	WALDir string
	// WALFsync, WALFsyncInterval, WALSegmentBytes, WALSegmentAge and
	// WALRetainTicks are every feed log's wal.Options Fsync, FsyncInterval,
	// SegmentBytes, SegmentAge and RetainTicks, documented and defaulted
	// there; convoyd maps its -wal-* flags here.
	WALFsync         wal.FsyncPolicy
	WALFsyncInterval time.Duration
	WALSegmentBytes  int64
	WALSegmentAge    time.Duration
	WALRetainTicks   int64
	// MaxBodyBytes caps request bodies (tick batches and uploaded
	// databases). Default 64 MiB.
	MaxBodyBytes int64
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

// newRegistry builds the feed runtime the config describes; internal/feed
// defaults the feed fields left zero.
func newRegistry(c Config) *feed.Registry {
	return feed.NewRegistry(feed.Config{
		MaxFeeds:           c.MaxFeeds,
		MaxMonitorsPerFeed: c.MaxMonitorsPerFeed,
		FeedBuffer:         c.FeedBuffer,
		EventBuffer:        c.EventBuffer,
		HistoryLimit:       c.HistoryLimit,
		WALDir:             c.WALDir,
		WAL: wal.Options{
			SegmentBytes:  c.WALSegmentBytes,
			SegmentAge:    c.WALSegmentAge,
			Fsync:         c.WALFsync,
			FsyncInterval: c.WALFsyncInterval,
			RetainTicks:   c.WALRetainTicks,
			Observer:      c.metrics,
		},
		Observer: c.metrics,
		Logger:   c.Logger,
	})
}
