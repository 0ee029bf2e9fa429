// Package serve is the convoy-monitoring server behind the convoyd binary:
// a long-running, concurrent HTTP layer over the core algorithms.
//
// It hosts two engines:
//
//   - Feeds — named live position streams, each behind its own lock,
//     held by one request at a time. A feed hosts a *monitor table*:
//     standing convoy queries (core.Monitor, one per (m, k, e)) added and
//     removed at runtime over HTTP. Clients push per-tick position batches
//     once and observe, per monitor, convoys the moment they close — by
//     polling or by tailing an NDJSON event stream (events are tagged with
//     the monitor ID; ?monitor= filters). Per tick the feed runs one
//     DBSCAN pass per *distinct* clustering key (e, m) among the live
//     monitors and fans the clusters out to every monitor in the group, so
//     the per-tick cost is O(distinct keys), not O(monitors). Deleting a
//     monitor or a feed (or shutting the server down) drains open
//     candidates, so no convoy that satisfied the lifetime bound is ever
//     lost.
//
//   - Batch queries — POST a CSV/CTB database (or reference one under the
//     server's data directory) plus (m, k, e) and an algorithm, and get the
//     canonical answer with run statistics. Queries run on a bounded worker
//     pool and land in an LRU cache keyed by (db digest, params, variant).
//     The engine is context-first: a client that disconnects or exceeds its
//     timeout_ms (or the server's -request-timeout cap) aborts its
//     discovery run mid-clustering and frees the worker slot, and identical
//     concurrent queries collapse into one shared run (Cache: "dedup").
//
// The feed runtime — feed locks, monitor tables, event rings, the WAL and
// recovery — is internal/feed, which links no HTTP stack; this package maps
// requests onto it. When configured with a WAL directory (convoyd
// -data-dir), feeds are durable: every accepted tick batch is written
// ahead to a per-feed log (internal/wal) before any monitor advances,
// monitor registrations are journaled, and a restarting server replays the
// logs so its feeds come back state-identical to a process that never
// stopped — including after a crash mid-append. The retained window also
// serves historical queries.
//
// # HTTP API (all under /v1)
//
//	GET    /v1/healthz                      liveness + feed count
//	GET    /v1/feeds                        list feed statuses
//	POST   /v1/feeds                        create a feed     {name, params:{m,k,e}}
//	GET    /v1/feeds/{name}                 one feed's status (incl. monitor table)
//	DELETE /v1/feeds/{name}                 drain + delete    → {drained:[...]}
//	POST   /v1/feeds/{name}/ticks           ingest            {ticks:[{t, positions:[{id,x,y}]}]}
//	GET    /v1/feeds/{name}/convoys         poll closed convoys (?since=seq&monitor=id)
//	GET    /v1/feeds/{name}/events          NDJSON tail of closed convoys (?since=seq&monitor=id)
//	GET    /v1/feeds/{name}/monitors        list the feed's standing queries
//	POST   /v1/feeds/{name}/monitors        add a monitor     {id, params:{m,k,e}}
//	GET    /v1/feeds/{name}/monitors/{id}   one monitor's status
//	DELETE /v1/feeds/{name}/monitors/{id}   drain + remove    → {id, drained:[...]}
//	POST   /v1/feeds/{name}/query           historical query over the feed's WAL window
//	                                        {params, from?, to?, algo?}
//	GET    /v1/feeds/{name}/wal             WAL status: segments, bytes, fsync, recovery
//	POST   /v1/query                        batch query (body = CSV/CTB upload, params
//	                                        in the query string; or JSON {path,...})
//	POST   /v1/shard/query                  shard RPC (?v=1): one window of a
//	                                        distributed query (403 unless -shard)
//
// Every query surface decodes the same canonical parameter schema
// (wire.QuerySpec — legacy flat spellings included) and every non-2xx
// answer is the uniform envelope {"error":{"code","message"}}; see
// internal/wire. With Config.Shards set, POST /v1/query becomes a
// coordinator that fans the query out over a shard fleet and merges the
// exact answer (see shard.go).
//
// Every surface clusters positions with the paper's DBSCAN. A "clusterer"
// field in a query, feed or monitor spec is a legacy spelling: "dbscan" is
// accepted and dropped, any other backend answers 400 — proximity-log
// convoys (internal/proxgraph) are a library option,
// convoys.WithClusterer(log.Clusterer()), shown in ExampleWithClusterer.
//
// Replaying a database tick-by-tick through a feed and canonicalizing the
// emitted convoys equals the batch CMC answer on the same database — the
// property the end-to-end tests enforce.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/feed"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Server is the convoyd HTTP handler plus the state behind it. Create it
// with New, mount it anywhere (it implements http.Handler), and Close it
// to drain every feed on the way out.
type Server struct {
	cfg Config
	mux *http.ServeMux
	reg *feed.Registry
	q   *queryEngine

	janitorStop chan struct{}
	closeOnce   sync.Once
	wg          sync.WaitGroup
}

// New builds a server from the config (zero value = defaults) and starts
// its idle-feed janitor when an IdleTimeout is set.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		reg:         newRegistry(cfg),
		q:           newQueryEngine(cfg),
		janitorStop: make(chan struct{}),
	}
	s.routes()
	// Recovery-on-start: resurrect every durable feed before the handler
	// takes traffic, so the restarted server is state-identical to one that
	// never stopped.
	s.reg.Recover()
	cfg.metrics.bindServer(s)
	if cfg.IdleTimeout > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	return s
}

// ServeHTTP implements http.Handler. Every request is metered: route and
// status into convoyd_http_requests_total, wall time into
// convoyd_http_request_seconds (a streaming tail counts when it ends).
//
// The middleware also owns the request's observability identity: it mints
// a request ID, continues an incoming W3C traceparent (or starts a fresh
// trace when sampled, forced for ?explain=true and whenever slow-request
// logging is armed), answers with a traceparent header so callers can
// join their logs to the server's, and stores a request-scoped logger
// carrying both IDs in the context for the handlers. Requests that fail
// server-side or exceed the SlowQuery threshold emit one structured
// record — the slow record with the full span tree attached.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	t0 := time.Now()
	sw := &statusWriter{ResponseWriter: w}

	reqID := newRequestID()
	var opts []trace.StartOption
	if tid, sid, sampled, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
		opts = append(opts, trace.WithRemote(tid, sid, sampled))
	}
	if s.cfg.SlowQuery > 0 || explainParam(r) {
		opts = append(opts, trace.Forced())
	}
	ctx, sp := s.cfg.Tracer.Start(r.Context(), "http", opts...)
	logger := s.cfg.Logger.With("request_id", reqID)
	traceID := ""
	if sp != nil {
		tid, sid := sp.IDs()
		w.Header().Set("traceparent", trace.FormatTraceparent(tid, sid, true))
		sp.Str("request_id", reqID).Str("method", r.Method).Str("path", r.URL.Path)
		traceID = sp.TraceID()
		logger = logger.With("trace_id", traceID)
	}
	r = r.WithContext(withLogger(ctx, logger))

	s.mux.ServeHTTP(sw, r)

	code := sw.code
	if code == 0 {
		code = http.StatusOK // handler wrote nothing at all
	}
	d := time.Since(t0)
	if sp != nil {
		// r.Pattern holds the mux route that matched (empty on 404),
		// keeping the route label's cardinality bounded by the route table.
		sp.Str("route", r.Pattern).Int("status", int64(code))
		sp.End()
	}
	s.cfg.metrics.observeHTTP(r.Pattern, code, d, traceID)
	if code >= http.StatusInternalServerError {
		logger.Error("request failed",
			"method", r.Method, "route", r.Pattern, "path", r.URL.Path,
			"status", code, "duration_ms", msFloat(d))
	}
	if s.cfg.SlowQuery > 0 && d >= s.cfg.SlowQuery {
		args := []any{
			"method", r.Method, "route", r.Pattern, "path", r.URL.Path,
			"status", code, "duration_ms", msFloat(d),
		}
		if tj, ok := sp.Collect(); ok {
			args = append(args, slog.Any("trace", tj))
		}
		logger.Warn("slow request", args...)
	}
}

// Close drains every feed (flushing open candidates through the streamers)
// and stops the janitor. Safe to call more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.janitorStop)
		s.reg.CloseAll()
	})
	s.wg.Wait()
	return nil
}

// janitor evicts idle feeds on a fraction of the idle timeout.
func (s *Server) janitor() {
	defer s.wg.Done()
	period := s.cfg.IdleTimeout / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case now := <-t.C:
			if n := s.reg.EvictIdle(now.Add(-s.cfg.IdleTimeout)); n > 0 {
				s.cfg.Logger.Info("idle feeds evicted",
					"count", n, "idle_timeout", s.cfg.IdleTimeout.String())
			}
		}
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/feeds", s.handleListFeeds)
	s.mux.HandleFunc("POST /v1/feeds", s.handleCreateFeed)
	s.mux.HandleFunc("GET /v1/feeds/{name}", s.handleFeedStatus)
	s.mux.HandleFunc("DELETE /v1/feeds/{name}", s.handleDeleteFeed)
	s.mux.HandleFunc("POST /v1/feeds/{name}/ticks", s.handleTicks)
	s.mux.HandleFunc("GET /v1/feeds/{name}/convoys", s.handlePoll)
	s.mux.HandleFunc("GET /v1/feeds/{name}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/feeds/{name}/monitors", s.handleListMonitors)
	s.mux.HandleFunc("POST /v1/feeds/{name}/monitors", s.handleAddMonitor)
	s.mux.HandleFunc("GET /v1/feeds/{name}/monitors/{id}", s.handleMonitorStatus)
	s.mux.HandleFunc("DELETE /v1/feeds/{name}/monitors/{id}", s.handleDeleteMonitor)
	s.mux.HandleFunc("POST /v1/feeds/{name}/query", s.handleHistoryQuery)
	s.mux.HandleFunc("GET /v1/feeds/{name}/wal", s.handleWALStatus)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/shard/query", s.handleShardQuery)
}

// handleHistoryQuery answers a batch convoy query over the tick window a
// durable feed's WAL retains (404 on in-memory feeds).
func (s *Server) handleHistoryQuery(w http.ResponseWriter, r *http.Request) {
	s.onFeed(w, r, func(f *feed.Feed) (any, error) {
		var req HistoryQueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, badRequest(fmt.Errorf("decode history query: %w", err))
		}
		return s.historyQuery(r.Context(), f, req)
	})
}

// handleWALStatus reports a durable feed's log shape, append/fsync
// counters and recovery stats (404 on in-memory feeds).
func (s *Server) handleWALStatus(w http.ResponseWriter, r *http.Request) {
	s.onFeed(w, r, func(f *feed.Feed) (any, error) { return f.WALStatus(r.Context()) })
}

// onFeed answers a route whose work is one call on the feed the path
// names: the call's result as a 200 JSON body, or its error — a 404 for an
// unknown feed — as the error envelope.
func (s *Server) onFeed(w http.ResponseWriter, r *http.Request, call func(*feed.Feed) (any, error)) {
	f, err := s.reg.Get(r.PathValue("name"))
	var v any
	if err == nil {
		v, err = call(f)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// writeJSON emits a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // a peer gone mid-write is its own problem
}

// writeErr maps an error to its HTTP status and the uniform envelope
// {"error":{"code","message"}} every /v1/* route answers with. Overload
// rejections (429) carry a Retry-After hint.
func writeErr(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, wire.NewError(status, err.Error()))
}

// badRequestError marks an error as the client's fault (400). It is the
// feed runtime's InvalidError, so a mistake recognized there and one
// recognized here answer alike; wrap with badRequest where the mistake is
// recognized, and the message passes through untouched.
type badRequestError = feed.InvalidError

func badRequest(err error) error { return feed.Invalid(err) }

// statusFor resolves an error's HTTP status from its type: client
// mistakes are wrapped in badRequestError at the point where they are
// classified, so no message sniffing happens here.
func statusFor(err error) int {
	var (
		bre *badRequestError
		mbe *http.MaxBytesError
		she *dist.ShardError
	)
	switch {
	case errors.Is(err, feed.ErrNoFeed), errors.Is(err, feed.ErrNoMonitor),
		errors.Is(err, errDBNotFound), errors.Is(err, feed.ErrNoWAL):
		return http.StatusNotFound
	case errors.Is(err, feed.ErrFeedExists), errors.Is(err, feed.ErrMonitorExists):
		return http.StatusConflict
	case errors.Is(err, feed.ErrTooManyFeeds), errors.Is(err, feed.ErrTooManyMonitors):
		// The feed/monitor caps are overload backpressure, not a storage
		// condition: clients should retry after draining or deleting.
		return http.StatusTooManyRequests
	case errors.Is(err, feed.ErrFeedClosed), errors.Is(err, feed.ErrClosing):
		return http.StatusGone
	case errors.Is(err, errPathRefDisabled), errors.Is(err, errShardDisabled):
		return http.StatusForbidden
	case errors.As(err, &she):
		// The client's query was fine; a shard behind this coordinator was
		// not.
		return http.StatusBadGateway
	case errors.Is(err, context.DeadlineExceeded):
		// The query's timeout_ms (or the server's -request-timeout cap)
		// expired; the discovery run was aborted and its slot freed.
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away mid-query; nobody reads this response, but
		// the nginx-convention 499 keeps access logs honest.
		return 499
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &bre), errors.Is(err, core.ErrTickDomain):
		// The latter is the data's fault too: ticks the CuTS family cannot
		// represent (algo=cmc mines them).
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "feeds": s.reg.Count()})
}

func (s *Server) handleListFeeds(w http.ResponseWriter, r *http.Request) {
	out := []FeedStatus{}
	for _, f := range s.reg.List() {
		st, err := f.Status(r.Context())
		if err != nil {
			continue // closed between list and status; skip
		}
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCreateFeed(w http.ResponseWriter, r *http.Request) {
	var spec FeedSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeErr(w, badRequest(fmt.Errorf("decode feed spec: %w", err)))
		return
	}
	if err := wire.CheckClusterer(spec.Clusterer); err != nil {
		writeErr(w, badRequest(err))
		return
	}
	f, err := s.reg.Create(spec.Name, spec.Params.Params())
	if err != nil {
		writeErr(w, err)
		return
	}
	loggerFrom(r.Context(), s.cfg.Logger).Info("feed created",
		"feed", spec.Name, "m", spec.Params.M, "k", spec.Params.K, "e", spec.Params.Eps)
	st, err := f.Status(r.Context())
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleFeedStatus(w http.ResponseWriter, r *http.Request) {
	s.onFeed(w, r, func(f *feed.Feed) (any, error) { return f.Status(r.Context()) })
}

func (s *Server) handleDeleteFeed(w http.ResponseWriter, r *http.Request) {
	resp, err := s.reg.Remove(r.Context(), r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	loggerFrom(r.Context(), s.cfg.Logger).Info("feed deleted",
		"feed", r.PathValue("name"), "drained", len(resp.Drained))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleListMonitors(w http.ResponseWriter, r *http.Request) {
	s.onFeed(w, r, func(f *feed.Feed) (any, error) { return f.Monitors(r.Context()) })
}

func (s *Server) handleAddMonitor(w http.ResponseWriter, r *http.Request) {
	f, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	var spec MonitorSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeErr(w, badRequest(fmt.Errorf("decode monitor spec: %w", err)))
		return
	}
	if err := wire.CheckClusterer(spec.Clusterer); err != nil {
		writeErr(w, badRequest(err))
		return
	}
	st, err := f.AddMonitor(r.Context(), spec.ID, spec.Params.Params())
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleMonitorStatus(w http.ResponseWriter, r *http.Request) {
	s.onFeed(w, r, func(f *feed.Feed) (any, error) { return f.Monitor(r.Context(), r.PathValue("id")) })
}

func (s *Server) handleDeleteMonitor(w http.ResponseWriter, r *http.Request) {
	s.onFeed(w, r, func(f *feed.Feed) (any, error) { return f.RemoveMonitor(r.Context(), r.PathValue("id")) })
}

// readBody reads a request body whole into a buffer sized once from
// Content-Length — io.ReadAll regrows from 512 bytes, seven times for a
// 300-position tick. The length is only a capacity hint, floored for a
// chunked body that declares none and capped so that a header's word alone
// cannot reserve more than 1 MiB: the read runs to EOF whatever the header
// said, behind ServeHTTP's MaxBytesReader.
func readBody(r *http.Request) ([]byte, error) {
	buf := make([]byte, 0, min(max(r.ContentLength, 512), 1<<20)+1) // +1: the read that reports EOF needs room
	for {
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// readUpload reads the database a batch query or a shard RPC carries as its
// body; an empty one is the client's mistake.
func readUpload(r *http.Request) ([]byte, error) {
	data, err := readBody(r)
	if err != nil {
		return nil, fmt.Errorf("read upload: %w", err)
	}
	if len(data) == 0 {
		return nil, badRequest(errors.New("decode query: empty database upload"))
	}
	return data, nil
}

// decodeTicks reads and decodes the body of a ticks POST (wire.DecodeTicks:
// {"ticks":[...]} or one bare batch). The batches' labels point into one
// copy of the body that lives as long as they do.
func decodeTicks(r *http.Request) ([]TickBatch, int, error) {
	data, err := readBody(r)
	if err != nil {
		return nil, 0, badRequest(fmt.Errorf("decode ticks: %w", err))
	}
	batches, err := wire.DecodeTicks(data)
	if err != nil {
		return nil, len(data), badRequest(err)
	}
	return batches, len(data), nil
}

// handleTicks ingests tick batches. On a sampled request the http span gets
// two children, decode (read + parse) and apply (the wait for the feed's
// lock + the feed's work, split further by the feed's stage attributes).
func (s *Server) handleTicks(w http.ResponseWriter, r *http.Request) {
	f, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	_, sp := trace.StartSpan(r.Context(), "decode")
	batches, size, err := decodeTicks(r)
	sp.Int("bytes", int64(size)).Int("ticks", int64(len(batches))).End()
	if err != nil {
		writeErr(w, err)
		return
	}
	ctx, sp := trace.StartSpan(r.Context(), "apply")
	resp, err := f.Ingest(ctx, batches)
	sp.End()
	if err != nil {
		// The accepted prefix is permanently applied; the client needs
		// to know how far the batch got to resume past it, so the uniform
		// envelope's error object rides next to the resume cursor.
		status := statusFor(err)
		writeJSON(w, status, TicksError{
			Error:    ErrorBody{Code: wire.CodeForStatus(status), Message: err.Error()},
			Accepted: resp.Accepted,
			Closed:   resp.Closed,
		})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// sinceParam parses the ?since= cursor (default 0).
func sinceParam(r *http.Request) (uint64, error) {
	raw := r.URL.Query().Get("since")
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, badRequest(fmt.Errorf("decode since=%q: %w", raw, err))
	}
	return v, nil
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	s.onFeed(w, r, func(f *feed.Feed) (any, error) {
		since, err := sinceParam(r)
		if err != nil {
			return nil, err
		}
		monitor, err := monitorParam(r, f)
		if err != nil {
			return nil, err
		}
		resp, err := f.EventsSince(r.Context(), since)
		if err != nil || monitor == "" {
			return resp, err
		}
		// NextSeq stays the feed-level cursor: a filtered poll resumed with
		// ?since=NextSeq never re-reads or skips events.
		kept := []Event{}
		for _, ev := range resp.Events {
			if ev.Monitor == monitor {
				kept = append(kept, ev)
			}
		}
		resp.Events = kept
		return resp, nil
	})
}

// monitorParam resolves the optional ?monitor= filter against the feed's
// table: a filter naming a monitor that does not exist is a 404, not a
// silently empty stream (a typo'd dispatcher must hear about it). History
// of deleted monitors stays reachable unfiltered.
func monitorParam(r *http.Request, f *feed.Feed) (string, error) {
	monitor := r.URL.Query().Get("monitor")
	if monitor == "" {
		return "", nil
	}
	if _, err := f.Monitor(r.Context(), monitor); err != nil {
		return "", err
	}
	return monitor, nil
}

// handleEvents tails a feed as NDJSON: replayed history first, then live
// events as they close, one JSON object per line, flushed per event. The
// stream ends when the client goes away, the feed dies, or the subscriber
// falls too far behind.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	f, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	since, err := sinceParam(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	monitor, err := monitorParam(r, f)
	if err != nil {
		writeErr(w, err)
		return
	}
	replayed, ch, cancel, err := f.Subscribe(r.Context(), since)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out now: a subscriber must learn the stream is
		// live before the first event closes, or a client that subscribes
		// first and pushes ticks second deadlocks against itself.
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	send := func(ev Event) bool {
		if monitor != "" && ev.Monitor != monitor {
			return true // tail only the requested monitor's events
		}
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, ev := range replayed {
		if !send(ev) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if !send(ev) {
				return
			}
		}
	}
}

// handleQuery answers a batch query. A JSON body references a file under
// the data dir; any other content type is treated as an uploaded CSV/CTB
// database with parameters in the URL query string (m, k, e, algo, delta,
// lambda, workers).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var (
		req  QueryRequest
		data []byte // the upload; nil for a path query
		err  error
	)
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ct == "application/json" {
		if err = json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, badRequest(fmt.Errorf("decode query: %w", err)))
			return
		}
		// ?explain=true works uniformly: JSON clients may set it in the
		// body or on the URL like upload clients.
		req.Explain = req.Explain || explainParam(r)
	} else {
		if req, err = queryFromURL(r); err == nil {
			data, err = readUpload(r)
		}
		if err != nil {
			writeErr(w, err)
			return
		}
	}
	resp, err := s.q.run(r.Context(), data, req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryFromURL decodes upload-style query parameters through the
// canonical decoder (wire.SpecFromURL): m and k are integers and rejected
// (not truncated) when fractional, "eps" is accepted as an alias of "e",
// and from/to/v ride along with the legacy knobs.
func queryFromURL(r *http.Request) (QueryRequest, error) {
	spec, err := wire.SpecFromURL(r.URL.Query())
	if err != nil {
		return QueryRequest{}, badRequest(err)
	}
	return QueryRequest{QuerySpec: spec}, nil
}
