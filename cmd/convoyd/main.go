// Command convoyd serves convoy discovery over HTTP: live feeds hosting
// concurrent standing queries (monitors) plus a batch query engine over
// uploaded or on-disk databases (see the serve package for the API).
//
// Usage:
//
//	convoyd -addr :8764 [-data dir] [-idle 10m] [-query-workers 8] [-cache 64] [-max-monitors 64] [-request-timeout 30s]
//	        [-data-dir dir] [-wal-fsync always|interval|never] [-wal-fsync-interval 100ms]
//	        [-wal-segment-bytes 4194304] [-wal-segment-age 0] [-wal-retain-ticks 0]
//	        [-shard | -shards host:port,host:port,...]
//	        [-metrics-addr :9090] [-pprof] [-log-format text|json] [-log-level info] [-slow-query 250ms] [-trace-sample 0.01]
//
// Quick start against a running server:
//
//	curl -X POST localhost:8764/v1/feeds -d '{"name":"fleet","params":{"m":2,"k":3,"e":1}}'
//	curl -X POST localhost:8764/v1/feeds/fleet/ticks \
//	     -d '{"ticks":[{"t":0,"positions":[{"id":"van1","x":0,"y":0},{"id":"van2","x":0.5,"y":0}]}]}'
//	curl localhost:8764/v1/feeds/fleet/convoys
//	curl -X POST 'localhost:8764/v1/query?m=3&k=180&e=8' --data-binary @trucks.csv
//
// Any number of standing queries can watch one feed; monitors sharing
// (e, m) share one clustering pass per tick, and events are tagged with the
// monitor that closed them:
//
//	curl -X POST localhost:8764/v1/feeds/fleet/monitors \
//	     -d '{"id":"long-haul","params":{"m":2,"k":30,"e":1}}'
//	curl 'localhost:8764/v1/feeds/fleet/convoys?monitor=long-haul'
//	curl -X DELETE localhost:8764/v1/feeds/fleet/monitors/long-haul
//
// Feeds, monitors and queries cluster positions with the paper's DBSCAN.
// "clusterer":"dbscan" is accepted as a legacy spelling; any other backend
// answers 400: convoys in an "a,b,t,w" contact log are a library option,
// convoys.WithClusterer(log.Clusterer()), shown in ExampleWithClusterer.
//
// # Durable feeds
//
// With -data-dir set, feeds survive restarts and crashes: every accepted
// tick batch is written ahead to a per-feed log under <dir>/feeds before
// any monitor advances, monitor registrations are journaled, and startup
// replays the logs so the feed table comes back state-identical —
// including after a SIGKILL mid-append (the torn final record is
// truncated away). Durability costs what -wal-fsync says: "always" syncs
// every batch (crash-proof, slowest), "interval" syncs on a -wal-fsync-
// interval timer (the default; a crash loses at most the last interval),
// "never" leaves it to the OS. -wal-retain-ticks bounds the log (and the
// historical-query window); without -data-dir feeds are in-memory. Two
// endpoints ride on the log:
//
//	curl -X POST localhost:8764/v1/feeds/fleet/query -d '{"params":{"m":2,"k":3,"e":1},"from":0,"to":500}'
//	curl localhost:8764/v1/feeds/fleet/wal
//
// # Distributed queries
//
// A convoyd fleet splits batch queries across machines. Start shards with
// -shard (enabling POST /v1/shard/query, the versioned window RPC) and a
// coordinator pointing at them:
//
//	convoyd -addr :8765 -shard &
//	convoyd -addr :8766 -shard &
//	convoyd -addr :8764 -shards localhost:8765,localhost:8766
//
// The coordinator answers POST /v1/query exactly like a single node — it
// splits the database's time range into overlapping windows (overlap k−1,
// so convoys crossing a boundary are seen whole by at least one side),
// assigns one window per shard, and merges the partial answers into the
// exact global result. Caching, in-flight dedup of identical queries and
// the query-worker bound all apply to the fan-out as a unit. -shard and
// -shards are mutually exclusive: a process is a shard or a coordinator.
//
// # Observability
//
// The server meters itself (see internal/serve's metric catalogue) and
// exposes:
//
//	GET /metrics       Prometheus text exposition (convoyd_* and go_*
//	                   families; Accept: application/openmetrics-text or
//	                   ?exemplars=1 adds trace-ID exemplars on the latency
//	                   histograms)
//	GET /debug/traces  recent request/query traces, newest first (?min_ms=)
//
// By default /metrics and /debug/traces are mounted on the main address;
// -metrics-addr moves them (plus -pprof's /debug/pprof/*) onto a separate
// listener, the usual arrangement when the API port is public:
//
//	convoyd -addr :8764 -metrics-addr 127.0.0.1:9090 -pprof
//	curl 127.0.0.1:9090/metrics
//
// Logs are structured (log/slog): -log-format picks text or json,
// -log-level the threshold. Every record emitted while serving a request
// carries that request's request_id (and trace_id when traced).
// -slow-query 250ms traces every request and logs one record with the
// full span tree for each request slower than the threshold;
// -trace-sample 0.01 additionally samples 1% of ordinary requests into
// /debug/traces. Clients get per-query stage timings with
// POST /v1/query?...&explain=true, no server flags required.
//
// SIGINT/SIGTERM shut down gracefully: in-flight requests finish and every
// feed is drained, flushing still-open convoys to its event log.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/wal"
)

// buildLogger assembles the process logger from the -log-format and
// -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

func main() {
	var (
		addr        = flag.String("addr", ":8764", "listen address")
		dataDir     = flag.String("data", "", "directory of databases available to path-referencing /v1/query (empty = uploads only)")
		idle        = flag.Duration("idle", 0, "evict feeds idle for this long (0 = never)")
		workers     = flag.Int("query-workers", 0, "max concurrent batch queries (0 = GOMAXPROCS)")
		cache       = flag.Int("cache", 0, "batch-query LRU cache entries (0 = default 64, negative = off)")
		history     = flag.Int("history", 0, "closed-convoy events retained per feed (0 = default 1024)")
		monitors    = flag.Int("max-monitors", 0, "standing queries allowed per feed (0 = default 64)")
		reqTimeout  = flag.Duration("request-timeout", 0, "server-side cap on one batch query's wall time; queries past it abort mid-run and answer 504 (0 = uncapped)")
		metricsAddr = flag.String("metrics-addr", "", "separate listen address for /metrics, /debug/traces and -pprof (empty = mount them on the main address)")
		pprofOn     = flag.Bool("pprof", false, "also serve /debug/pprof/* on the metrics address (or the main address when -metrics-addr is empty)")
		logFormat   = flag.String("log-format", "text", "structured log format: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		slowQuery   = flag.Duration("slow-query", 0, "trace every request and log a structured record with the full span tree for any request slower than this (0 = off)")
		traceSample = flag.Float64("trace-sample", 0, "probability in [0,1] of tracing an ordinary request into /debug/traces (explain and slow-query tracing work regardless)")
		shardMode   = flag.Bool("shard", false, "serve as a distributed-query shard: enable POST /v1/shard/query, the RPC a coordinator assigns time windows over (mutually exclusive with -shards)")
		shardList   = flag.String("shards", "", "comma-separated shard base URLs (host:port or http://host:port); serve as a distributed-query coordinator fanning every batch query out over these shards (mutually exclusive with -shard)")

		walDir           = flag.String("data-dir", "", "durable-feed directory: per-feed write-ahead logs live under <dir>/feeds and are replayed on start (empty = feeds are in-memory)")
		walFsync         = flag.String("wal-fsync", "interval", "WAL tick durability: always (sync every batch), interval (timer) or never")
		walFsyncInterval = flag.Duration("wal-fsync-interval", 100*time.Millisecond, "fsync timer period under -wal-fsync=interval")
		walSegBytes      = flag.Int64("wal-segment-bytes", 4<<20, "rotate a feed's active WAL segment beyond this size")
		walSegAge        = flag.Duration("wal-segment-age", 0, "also rotate a feed's active WAL segment after this long (0 = size-only rotation)")
		walRetain        = flag.Int64("wal-retain-ticks", 0, "compact WAL segments wholly older than the last tick minus this many ticks; bounds disk and the historical-query window (0 = retain everything)")
	)
	flag.Parse()

	var shards []string
	if *shardList != "" {
		if *shardMode {
			fmt.Fprintln(os.Stderr, "convoyd: -shard and -shards are mutually exclusive (a server is a shard or a coordinator, not both)")
			os.Exit(2)
		}
		for _, s := range strings.Split(*shardList, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			if !strings.Contains(s, "://") {
				s = "http://" + s
			}
			shards = append(shards, s)
		}
		if len(shards) == 0 {
			fmt.Fprintln(os.Stderr, "convoyd: -shards lists no shard addresses")
			os.Exit(2)
		}
	}

	fsync, err := wal.ParseFsyncPolicy(*walFsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "convoyd:", err)
		os.Exit(2)
	}
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "convoyd:", err)
		os.Exit(2)
	}
	tracer := trace.NewTracer(trace.WithSampleRatio(*traceSample))

	reg := metrics.NewRegistry()
	srv := serve.New(serve.Config{
		DataDir:            *dataDir,
		WALDir:             *walDir,
		WALFsync:           fsync,
		WALFsyncInterval:   *walFsyncInterval,
		WALSegmentBytes:    *walSegBytes,
		WALSegmentAge:      *walSegAge,
		WALRetainTicks:     *walRetain,
		IdleTimeout:        *idle,
		QueryWorkers:       *workers,
		CacheEntries:       *cache,
		HistoryLimit:       *history,
		MaxMonitorsPerFeed: *monitors,
		QueryTimeout:       *reqTimeout,
		Metrics:            reg,
		Logger:             logger,
		Tracer:             tracer,
		SlowQuery:          *slowQuery,
		Shards:             shards,
		ShardMode:          *shardMode,
	})
	if *walDir != "" {
		logger.Info("durable feeds enabled", "data_dir", *walDir, "fsync", fsync.String())
	}
	if *shardMode {
		logger.Info("shard mode: serving POST /v1/shard/query")
	}
	if len(shards) > 0 {
		logger.Info("coordinator mode: fanning batch queries out", "shards", strings.Join(shards, ","))
	}

	// The API mux: everything the serve package routes lives under /v1,
	// so the observability endpoints can share the listener without the
	// request-metering middleware counting scrapes as API traffic.
	apiMux := http.NewServeMux()
	apiMux.Handle("/v1/", srv)

	obsMux := apiMux // default: observability on the main address
	if *metricsAddr != "" {
		obsMux = http.NewServeMux()
	}
	obsMux.Handle("GET /metrics", reg.Handler())
	obsMux.Handle("GET /debug/traces", serve.TracesHandler(tracer))
	if *pprofOn {
		obsMux.HandleFunc("/debug/pprof/", pprof.Index)
		obsMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		obsMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		obsMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		obsMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: apiMux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 2)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "slow_query", slowQuery.String(), "trace_sample", *traceSample)

	var obsSrv *http.Server
	if *metricsAddr != "" {
		obsSrv = &http.Server{Addr: *metricsAddr, Handler: obsMux}
		go func() { errc <- obsSrv.ListenAndServe() }()
		logger.Info("metrics listener up", "addr", *metricsAddr)
	}

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		if obsSrv != nil {
			if err := obsSrv.Shutdown(shutdownCtx); err != nil {
				logger.Error("metrics shutdown", "err", err)
			}
		}
		srv.Close()
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "convoyd:", err)
			os.Exit(1)
		}
	}
}
