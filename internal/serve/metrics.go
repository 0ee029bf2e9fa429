package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// serveMetrics bundles every instrument the server updates. One bundle is
// built per Server (by Config.withDefaults) over the configured registry —
// or a private one when none is given — and threaded to the registry, the
// feeds and the query engine through the config.
//
// Metric catalogue (all families prefixed convoyd_):
//
//	http_requests_total{route,code}   every API request, by mux route
//	http_request_seconds{route}       API latency, by mux route
//	queries_total{algo,cache,outcome} batch queries; cache = hit|miss|dedup|none,
//	                                  outcome = ok|canceled|timeout|bad_request|error
//	query_seconds{algo,outcome}       batch query latency (queueing + discovery)
//	query_inflight                    worker-pool occupancy (slots held)
//	query_workers                     worker-pool capacity (constant)
//	query_computes_total              discovery runs actually started
//	query_stats_total{stat,algo}      core run stats folded per algorithm
//	                                  (cluster_passes, candidates, refine_units, …)
//	cache_entries                     LRU result-cache size
//	dataset_loads_total{outcome}      query inputs made minable; outcome =
//	                                  resident (parsed before, re-verified
//	                                  by digest) | parsed
//	datasets_resident_bytes           decoded bytes the dataset store holds
//	                                  (≤ 4 × MaxBodyBytes)
//	dataset_evictions_total           datasets evicted to stay in budget
//	feeds                             live feeds
//	feeds_created_total               feeds created
//	feeds_deleted_total               feeds deleted over HTTP
//	feeds_evicted_total               feeds evicted by the idle janitor
//	monitors                          standing queries across all feeds
//	feed_ticks_total                  tick batches ingested (rate() = tick rate)
//	feed_positions_total              positions ingested
//	feed_ingest_seconds               ingestion latency incl. lock wait
//	                                  (the feed's backpressure lag)
//	feed_events_total                 closed-convoy events emitted
//	feed_cluster_passes_total         snapshot DBSCAN passes actually run
//	feed_cluster_passes_naive_total   passes a per-monitor engine would have
//	                                  run (ticks × monitors); the difference
//	                                  is the work shared clustering saved
//	feed_cluster_passes_full_total    passes that clustered from scratch
//	feed_cluster_passes_incremental_total
//	                                  passes answered by the incremental
//	                                  engine (previous-tick structure
//	                                  patched; full + incremental = passes)
//	feed_objects_reclustered_total    objects whose neighborhoods were
//	                                  recomputed; against objects_seen this
//	                                  yields the feed's reuse ratio
//	feed_objects_seen_total           objects pushed through clustering
//	wal_appended_records_total        WAL records appended (one per batch)
//	wal_appended_bytes_total          framed WAL bytes appended
//	wal_fsyncs_total                  active-segment fsyncs
//	wal_fsync_seconds                 fsync latency (the durability tax a
//	                                  -wal-fsync=always ingest pays per batch)
//	wal_segments                      open WAL segments across durable feeds
//	wal_recovered_feeds_total         feeds rebuilt from their WAL at start
//	wal_replayed_ticks_total          tick batches re-applied by recovery
//	wal_truncated_bytes_total         torn-tail bytes dropped by recovery
//	wal_recovery_seconds              wall time of the last recovery-on-start
//
// serveMetrics also implements feed.Observer and wal.Observer, the feed
// runtime's and the log's metrics-free hooks; callbacks arrive from every
// feed's callers and each log's interval-fsync goroutine, which the atomic
// instruments tolerate.
type serveMetrics struct {
	reg *metrics.Registry

	httpRequests *metrics.CounterVec
	httpSeconds  *metrics.HistogramVec

	queries       *metrics.CounterVec
	querySeconds  *metrics.HistogramVec
	queryInflight *metrics.Gauge
	queryComputes *metrics.Counter
	queryStats    *metrics.CounterVec

	datasetLoads     *metrics.CounterVec
	datasetEvictions *metrics.Counter

	feedTicks         *metrics.Counter
	feedPositions     *metrics.Counter
	feedEvents        *metrics.Counter
	feedIngestSeconds *metrics.Histogram
	feedPasses        *metrics.Counter
	feedPassesNaive   *metrics.Counter
	feedPassesFull    *metrics.Counter
	feedPassesInc     *metrics.Counter
	feedReclustered   *metrics.Counter
	feedObjectsSeen   *metrics.Counter
	feedsCreated      *metrics.Counter
	feedsDeleted      *metrics.Counter
	feedsEvicted      *metrics.Counter
	monitors          *metrics.Gauge

	walAppendedRecords *metrics.Counter
	walAppendedBytes   *metrics.Counter
	walFsyncs          *metrics.Counter
	walFsyncSeconds    *metrics.Histogram
	walSegments        *metrics.Gauge
	walRecoveredFeeds  *metrics.Counter
	walReplayedTicks   *metrics.Counter
	walTruncatedBytes  *metrics.Counter
	walRecoverySeconds *metrics.Gauge
}

// newServeMetrics registers the server's instrument families on reg.
// Registering the same family twice on one registry panics, so a registry
// must not be shared by two servers.
func newServeMetrics(reg *metrics.Registry) *serveMetrics {
	m := &serveMetrics{reg: reg}
	metrics.RegisterRuntime(reg)
	m.httpRequests = reg.CounterVec("convoyd_http_requests_total",
		"API requests served, by mux route and status code.", "route", "code")
	m.httpSeconds = reg.HistogramVec("convoyd_http_request_seconds",
		"API request latency in seconds, by mux route.", nil, "route")
	m.queries = reg.CounterVec("convoyd_queries_total",
		"Batch queries, by algorithm, cache state (hit|miss|dedup|none) and outcome (ok|canceled|timeout|bad_request|error).",
		"algo", "cache", "outcome")
	m.querySeconds = reg.HistogramVec("convoyd_query_seconds",
		"Batch query latency in seconds (queueing plus discovery), by algorithm and outcome.",
		nil, "algo", "outcome")
	m.queryInflight = reg.Gauge("convoyd_query_inflight",
		"Worker-pool slots currently held by executing batch queries.")
	m.queryComputes = reg.Counter("convoyd_query_computes_total",
		"Discovery runs actually started (cache misses that reached the core).")
	m.queryStats = reg.CounterVec("convoyd_query_stats_total",
		"Core discovery-run statistics accumulated per algorithm (see core.Stats.Each).",
		"stat", "algo")
	m.datasetLoads = reg.CounterVec("convoyd_dataset_loads_total",
		"Query inputs made minable, by outcome: resident (content this server parsed before, re-verified by digest) or parsed.",
		"outcome")
	m.datasetEvictions = reg.Counter("convoyd_dataset_evictions_total",
		"Parsed datasets evicted, least recently used first, to keep the store within its byte budget.")
	m.feedTicks = reg.Counter("convoyd_feed_ticks_total",
		"Tick batches ingested across all feeds; rate() of this is the tick rate.")
	m.feedPositions = reg.Counter("convoyd_feed_positions_total",
		"Object positions ingested across all feeds.")
	m.feedEvents = reg.Counter("convoyd_feed_events_total",
		"Closed-convoy events emitted across all feeds.")
	m.feedIngestSeconds = reg.Histogram("convoyd_feed_ingest_seconds",
		"Tick-ingestion latency in seconds, lock wait included — the feed's backpressure lag.", nil)
	m.feedPasses = reg.Counter("convoyd_feed_cluster_passes_total",
		"Snapshot clustering passes actually run (one per distinct key per tick).")
	m.feedPassesNaive = reg.Counter("convoyd_feed_cluster_passes_naive_total",
		"Clustering passes a per-monitor engine would have run (ticks times monitors); the gap to the actual counter is the shared-clustering saving.")
	m.feedPassesFull = reg.Counter("convoyd_feed_cluster_passes_full_total",
		"Clustering passes that ran from scratch (first ticks, high churn, degenerate input, or incremental clustering off).")
	m.feedPassesInc = reg.Counter("convoyd_feed_cluster_passes_incremental_total",
		"Clustering passes answered by the incremental engine patching the previous tick's structure; full plus incremental equals the pass total.")
	m.feedReclustered = reg.Counter("convoyd_feed_objects_reclustered_total",
		"Objects whose neighborhoods were recomputed during feed clustering; compare with objects_seen for the reuse ratio.")
	m.feedObjectsSeen = reg.Counter("convoyd_feed_objects_seen_total",
		"Objects pushed through feed clustering (positions times sharing keys); the denominator of the reuse ratio.")
	m.feedsCreated = reg.Counter("convoyd_feeds_created_total", "Feeds created.")
	m.feedsDeleted = reg.Counter("convoyd_feeds_deleted_total", "Feeds deleted over HTTP.")
	m.feedsEvicted = reg.Counter("convoyd_feeds_evicted_total", "Feeds evicted by the idle janitor.")
	m.monitors = reg.Gauge("convoyd_monitors",
		"Standing queries (monitors) registered across all feeds.")
	m.walAppendedRecords = reg.Counter("convoyd_wal_appended_records_total",
		"Write-ahead-log records appended across all durable feeds (one per accepted tick batch).")
	m.walAppendedBytes = reg.Counter("convoyd_wal_appended_bytes_total",
		"Framed write-ahead-log bytes appended across all durable feeds.")
	m.walFsyncs = reg.Counter("convoyd_wal_fsyncs_total",
		"Fsyncs of active WAL segments.")
	m.walFsyncSeconds = reg.Histogram("convoyd_wal_fsync_seconds",
		"WAL fsync latency in seconds — the durability tax each batch pays under -wal-fsync=always.", nil)
	m.walSegments = reg.Gauge("convoyd_wal_segments",
		"Open WAL segments across all durable feeds.")
	m.walRecoveredFeeds = reg.Counter("convoyd_wal_recovered_feeds_total",
		"Feeds rebuilt from their write-ahead logs at server start.")
	m.walReplayedTicks = reg.Counter("convoyd_wal_replayed_ticks_total",
		"Tick batches re-applied by WAL recovery.")
	m.walTruncatedBytes = reg.Counter("convoyd_wal_truncated_bytes_total",
		"Torn-tail bytes dropped by WAL recovery (segments and spec journals).")
	m.walRecoverySeconds = reg.Gauge("convoyd_wal_recovery_seconds",
		"Wall time of the last recovery-on-start replay.")
	return m
}

// OnAppend implements wal.Observer: one record appended to some feed's log.
func (m *serveMetrics) OnAppend(records, bytes int) {
	m.walAppendedRecords.Add(float64(records))
	m.walAppendedBytes.Add(float64(bytes))
}

// OnFsync implements wal.Observer: one fsync of an active segment.
func (m *serveMetrics) OnFsync(d time.Duration) {
	m.walFsyncs.Inc()
	m.walFsyncSeconds.Observe(d.Seconds())
}

// OnSegments implements wal.Observer: open-segment count change.
func (m *serveMetrics) OnSegments(delta int) { m.walSegments.Add(float64(delta)) }

// OnTick implements feed.Observer: one applied tick batch.
func (m *serveMetrics) OnTick(t feed.TickMeters) {
	m.feedTicks.Inc()
	m.feedPositions.Add(float64(t.Positions))
	m.feedPasses.Add(float64(t.Passes))
	m.feedPassesNaive.Add(float64(t.NaivePasses))
	m.feedPassesFull.Add(float64(t.Full))
	m.feedPassesInc.Add(float64(t.Incremental))
	m.feedReclustered.Add(float64(t.Reclustered))
	m.feedObjectsSeen.Add(float64(t.Seen))
}

// OnIngest implements feed.Observer: one ingest call, lock wait included.
func (m *serveMetrics) OnIngest(d time.Duration) { m.feedIngestSeconds.Observe(d.Seconds()) }

// OnEvent implements feed.Observer: one closed-convoy event.
func (m *serveMetrics) OnEvent() { m.feedEvents.Inc() }

// OnMonitors implements feed.Observer: monitor-count change.
func (m *serveMetrics) OnMonitors(delta int) { m.monitors.Add(float64(delta)) }

// OnFeeds implements feed.Observer: feed lifecycle counts.
func (m *serveMetrics) OnFeeds(created, deleted, evicted int) {
	m.feedsCreated.Add(float64(created))
	m.feedsDeleted.Add(float64(deleted))
	m.feedsEvicted.Add(float64(evicted))
}

// OnRecovered implements feed.Observer: one feed rebuilt from its log.
func (m *serveMetrics) OnRecovered(r wire.WALRecoveryJSON) {
	m.walRecoveredFeeds.Inc()
	m.walReplayedTicks.Add(float64(r.ReplayedTicks))
	m.walTruncatedBytes.Add(float64(r.TruncatedBytes))
}

// OnRecoveryDone implements feed.Observer: the recovery-on-start wall time.
func (m *serveMetrics) OnRecoveryDone(d time.Duration) { m.walRecoverySeconds.Set(d.Seconds()) }

// bindServer registers the exposition-time gauges that read live server
// structures; called once per Server, after those structures exist.
func (m *serveMetrics) bindServer(s *Server) {
	m.reg.GaugeFunc("convoyd_feeds", "Live feeds.", func() float64 {
		return float64(s.reg.Count())
	})
	m.reg.GaugeFunc("convoyd_query_workers", "Worker-pool capacity for batch queries.", func() float64 {
		return float64(s.cfg.QueryWorkers)
	})
	m.reg.GaugeFunc("convoyd_cache_entries", "Batch-query LRU cache entries.", func() float64 {
		if s.q.lru == nil {
			return 0
		}
		return float64(s.q.lru.len())
	})
	m.reg.GaugeFunc("convoyd_datasets_resident_bytes",
		"Decoded bytes of the parsed datasets retained by content digest; at most 4 x MaxBodyBytes.", func() float64 {
			return float64(s.q.datasets.size())
		})
}

// algoInvalid is the algo label of a query whose spec wire rejected: such a
// query has no resolved algorithm, and an arbitrary client string must not
// mint a metric series.
const algoInvalid = "invalid"

// outcomeOf classifies a query error for the outcome label.
func outcomeOf(err error) string {
	var bre *badRequestError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.As(err, &bre):
		return "bad_request"
	default:
		return "error"
	}
}

// observeQuery records one finished batch query. traceID, when non-empty
// (the request was traced), lands as an OpenMetrics exemplar on the
// latency bucket the query fell into, joining the histogram to
// /debug/traces.
func (m *serveMetrics) observeQuery(algo, cache string, err error, d time.Duration, traceID string) {
	if cache == "" {
		cache = "none"
	}
	outcome := outcomeOf(err)
	m.queries.With(algo, cache, outcome).Inc()
	m.querySeconds.With(algo, outcome).ObserveExemplar(d.Seconds(), traceID, unixNow())
}

// observeRunStats folds one discovery run's core statistics into the
// per-algorithm stat counters.
func (m *serveMetrics) observeRunStats(algo string, st core.Stats) {
	st.Each(func(name string, v float64) {
		m.queryStats.With(name, algo).Add(v)
	})
}

// statusWriter captures the response status for the HTTP middleware while
// preserving the Flusher the NDJSON tail handler needs.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code, w.wrote = http.StatusOK, true
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it can flush (the NDJSON
// tail path type-asserts for this).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// observeHTTP records one finished API request; a non-empty traceID
// becomes the latency bucket's exemplar.
func (m *serveMetrics) observeHTTP(route string, code int, d time.Duration, traceID string) {
	if route == "" {
		route = "unmatched"
	}
	m.httpRequests.With(route, strconv.Itoa(code)).Inc()
	m.httpSeconds.With(route).ObserveExemplar(d.Seconds(), traceID, unixNow())
}
