package serve

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proxgraph"
	"repro/internal/trace"
	"repro/internal/tsio"
	"repro/internal/wire"
)

// queryEngine runs batch convoy queries on a bounded worker pool with an
// LRU result cache. The cache key is (database digest, params, algorithm,
// δ, λ): the digest covers the raw database bytes, so re-uploading the
// same file — or referencing it by path again — is a hit regardless of how
// it arrived.
//
// The engine is context-first end to end: the request context flows
// through queueing (acquire), deduplication (flights) and into the core
// discovery run itself, so a disconnected or timed-out client aborts its
// clustering pipeline and frees its worker slot instead of burning it
// until the algorithm finishes. A cancelled run never populates the
// cache. Identical concurrent queries (same cache key) collapse into one
// in-flight discovery run shared by every waiter.
type queryEngine struct {
	cfg Config
	sem chan struct{}
	lru *lruCache

	// digests memoizes full path → stat-keyed content digest. It is LRU
	// bounded at maxPathDigests: query load referencing ever-new paths
	// evicts the coldest entries instead of growing without limit.
	digests *lruCache

	// flights dedupes identical in-flight queries by cache key.
	fmu     sync.Mutex
	flights map[string]*flight

	// onComputeStart, when non-nil, is called as a compute begins (tests
	// use it to synchronize cancellation with a run in progress).
	onComputeStart func()
}

var (
	errPathRefDisabled = errors.New("serve: path-referencing queries disabled (no data dir configured)")
	errDBNotFound      = errors.New("serve: no such database")
)

func newQueryEngine(cfg Config) *queryEngine {
	e := &queryEngine{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.QueryWorkers),
		digests: newLRUCache(maxPathDigests),
		flights: make(map[string]*flight),
	}
	if cfg.CacheEntries > 0 {
		e.lru = newLRUCache(cfg.CacheEntries)
	}
	return e
}

// computes reports the discovery runs actually started (cache misses
// that reached the core) — the observable the dedup and
// queued-cancellation tests assert on, backed by the metrics counter.
func (e *queryEngine) computes() int64 { return int64(e.cfg.metrics.queryComputes.Value()) }

// resolve confines a client path to the data dir.
func (e *queryEngine) resolve(path string) (string, error) {
	if e.cfg.DataDir == "" {
		return "", errPathRefDisabled
	}
	if path == "" {
		return "", badRequest(errors.New("serve: query path is empty"))
	}
	clean := filepath.Clean("/" + path) // forces any ".." to resolve inside "/"
	return filepath.Join(e.cfg.DataDir, clean), nil
}

// readErr sanitizes a file error: not-found becomes the 404 sentinel and
// other failures report only their class — the server-side path layout
// must not reach clients.
func readErr(path string, err error) error {
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: %q", errDBNotFound, path)
	}
	return fmt.Errorf("serve: read database %q: %v", path, errors.Unwrap(err))
}

// parseDB sniffs the format (CTB magic versus CSV) and parses the bytes.
func parseDB(data []byte) (*model.DB, error) {
	if bytes.HasPrefix(data, []byte("CTB1")) {
		return tsio.DecodeBinary(data)
	}
	return tsio.ReadCSV(bytes.NewReader(data))
}

// queryPlan is a validated query: the canonical spec resolved by the one
// shared validator (wire.QuerySpec.Normalize) plus the server-side worker
// clamp.
type queryPlan struct {
	req QueryRequest
	// res is the resolved spec: validated params, algorithm, normalized
	// clusterer name ("" for dbscan, so legacy cache keys are unchanged)
	// and window bounds. A non-default clusterer changes how the request
	// body is parsed: proxgraph queries upload an edge CSV (a,b,t,w
	// contact log), not a trajectory database.
	res wire.Resolved
	// workers is the effective per-stage worker count: the request's
	// workers field clamped to the server's MaxWorkersPerQuery (0 = 1 =
	// serial). It never enters the cache key — the answer is identical for
	// every worker count.
	workers int
}

// plan validates the request once, up front — through the schema's single
// validator — clamping the requested worker count to the server's cap.
func plan(req QueryRequest, maxWorkers int) (queryPlan, error) {
	res, err := req.QuerySpec.Normalize()
	if err != nil {
		return queryPlan{}, badRequest(err)
	}
	workers := res.Spec.Workers
	if workers > maxWorkers {
		workers = maxWorkers
	}
	return queryPlan{req: req, res: res, workers: workers}, nil
}

// key is the cache key for this plan over a database with the digest. The
// key holds only answer-determining inputs: δ/λ are already normalized out
// for algo=cmc by the validator (equivalent CMC queries with different δ/λ
// must share an entry), the worker and partition counts never participate
// (parallel and partitioned output equals serial output by construction),
// and a from/to window — which does change the answer — extends the key
// only when present, so unwindowed keys keep their legacy shape.
func (pl queryPlan) key(digest string) string {
	key := fmt.Sprintf("%s|%d|%d|%g|%s|%g|%d|%s",
		digest, pl.res.P.M, pl.res.P.K, pl.res.P.Eps, pl.res.Algo,
		pl.res.Spec.Delta, pl.res.Spec.Lambda, pl.res.Clusterer)
	if pl.res.Windowed {
		key += fmt.Sprintf("|w%d:%d", pl.res.From, pl.res.To)
	}
	return key
}

// options is the one place a validated plan becomes core.Query options:
// params, workers, partitions, algorithm with its δ/λ, and the stats sink.
// cl, when non-nil, replaces the default per-tick clusterer (a proxgraph
// contact log).
func (pl queryPlan) options(cl core.Clusterer, st *core.Stats) []core.Option {
	opts := []core.Option{core.WithParams(pl.res.P), core.WithWorkers(pl.workers), core.WithStats(st)}
	if n := pl.res.Spec.Partitions; n > 1 {
		opts = append(opts, core.WithPartitions(n))
	}
	if cl != nil {
		opts = append(opts, core.WithClusterer(cl))
	}
	if pl.res.IsCMC {
		return append(opts, core.WithCMC())
	}
	return append(opts,
		core.WithVariant(pl.res.Variant),
		core.WithDelta(pl.res.Spec.Delta),
		core.WithLambda(pl.res.Spec.Lambda))
}

func hashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// cached returns the LRU answer for the key, marked as a hit.
func (e *queryEngine) cached(key string) (QueryResponse, bool) {
	if e.lru == nil {
		return QueryResponse{}, false
	}
	v, ok := e.lru.get(key)
	if !ok {
		return QueryResponse{}, false
	}
	resp := v.(QueryResponse)
	resp.Cache = "hit"
	resp.ElapsedMS = 0
	return resp, true
}

// acquire takes a worker-pool slot (or gives up with the context). Held
// slots show up on the convoyd_query_inflight occupancy gauge.
func (e *queryEngine) acquire(ctx context.Context) (release func(), err error) {
	select {
	case e.sem <- struct{}{}:
		e.cfg.metrics.queryInflight.Inc()
		return func() {
			e.cfg.metrics.queryInflight.Dec()
			<-e.sem
		}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// requestCtx applies the per-request deadline: the client's timeout_ms
// field and the server's QueryTimeout cap, whichever is tighter. The
// returned cancel must always be called.
func (e *queryEngine) requestCtx(ctx context.Context, req QueryRequest) (context.Context, context.CancelFunc) {
	var d time.Duration
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS * float64(time.Millisecond))
	}
	if e.cfg.QueryTimeout > 0 && (d == 0 || e.cfg.QueryTimeout < d) {
		d = e.cfg.QueryTimeout
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// run answers one batch query — over the uploaded database bytes, or over
// the file req.Path references when data is nil — metering outcome, cache
// state and latency (with the request's trace ID as the latency bucket's
// exemplar when the request is traced).
func (e *queryEngine) run(ctx context.Context, data []byte, req QueryRequest) (resp QueryResponse, err error) {
	t0 := time.Now()
	if data == nil {
		resp, err = e.runPath(ctx, req)
	} else {
		resp, err = e.runUpload(ctx, data, req)
	}
	e.cfg.metrics.observeQuery(algoLabel(req.Algo), resp.Cache, err, time.Since(t0), trace.FromContext(ctx).TraceID())
	return resp, err
}

// runUpload: cache first, then parse+compute under a worker slot,
// deduplicating identical concurrent queries.
func (e *queryEngine) runUpload(ctx context.Context, data []byte, req QueryRequest) (QueryResponse, error) {
	pl, err := plan(req, e.cfg.MaxWorkersPerQuery)
	if err != nil {
		return QueryResponse{}, err
	}
	ctx, cancel := e.requestCtx(ctx, req)
	defer cancel()
	digest := hashBytes(data)
	key := flightKey(pl, digest)
	if !pl.req.Explain {
		// An explain query bypasses the cache read: the profile must
		// describe a run this request actually performed.
		if resp, ok := e.cached(key); ok {
			return resp, nil
		}
	}
	reqSpan := trace.FromContext(ctx)
	return e.shared(ctx, key, func(fctx context.Context) (QueryResponse, error) {
		release, err := e.acquire(fctx)
		if err != nil {
			return QueryResponse{}, err
		}
		defer release()
		return e.compute(fctx, digest, data, pl, reqSpan)
	})
}

// flightKey is the dedup key for in-flight runs: the cache key, plus an
// explain marker so explain queries (which must always compute) never
// join — and are never joined by — plain queries, whose answer they still
// share through the cache afterwards.
func flightKey(pl queryPlan, digest string) string {
	key := pl.key(digest)
	if pl.req.Explain {
		key += "|explain"
	}
	return key
}

// runPath answers a path-referencing query. A memo of path → (stat,
// digest) lets repeat queries against an unchanged file hit the cache
// without touching the disk at all; only a miss (or a changed file) pays
// the read+hash, and every disk read happens under a worker slot so a
// burst of cold-path queries cannot hold more than QueryWorkers database
// files in memory at once.
func (e *queryEngine) runPath(ctx context.Context, req QueryRequest) (QueryResponse, error) {
	pl, err := plan(req, e.cfg.MaxWorkersPerQuery)
	if err != nil {
		return QueryResponse{}, err
	}
	ctx, cancel := e.requestCtx(ctx, req)
	defer cancel()
	full, err := e.resolve(req.Path)
	if err != nil {
		return QueryResponse{}, err
	}
	st, err := os.Stat(full)
	if err != nil {
		return QueryResponse{}, readErr(req.Path, err)
	}
	digest, ok := e.pathDigest(full, st)
	if !ok {
		// Cold memo: the digest (the cache and dedup key) requires reading
		// the file. Hash under a briefly-held worker slot and drop the
		// bytes — the flight re-reads below, so cold queries queued for a
		// compute slot never pin file contents in memory while they wait.
		release, aerr := e.acquire(ctx)
		if aerr != nil {
			return QueryResponse{}, aerr
		}
		data, rerr := os.ReadFile(full)
		release()
		if rerr != nil {
			return QueryResponse{}, readErr(req.Path, rerr)
		}
		digest = hashBytes(data)
		e.storePathDigest(full, st, digest)
	}
	if !pl.req.Explain {
		if resp, hit := e.cached(pl.key(digest)); hit {
			return resp, nil
		}
	}
	reqSpan := trace.FromContext(ctx)
	return e.shared(ctx, flightKey(pl, digest), func(fctx context.Context) (QueryResponse, error) {
		release, err := e.acquire(fctx)
		if err != nil {
			return QueryResponse{}, err
		}
		defer release()
		data, rerr := os.ReadFile(full) // under the compute slot
		if rerr != nil {
			return QueryResponse{}, readErr(req.Path, rerr)
		}
		// The file may have changed since the digest was memoized; hash
		// what was actually read, so the answer is always cached under its
		// true content digest and can never poison another content's key.
		return e.compute(fctx, hashBytes(data), data, pl, reqSpan)
	})
}

// flight is one in-flight discovery run shared by every concurrent query
// with the same cache key. The run is detached from any single request's
// context: it lives while at least one waiter is interested and is
// cancelled when the last waiter walks away, so one impatient client's
// disconnect never poisons the answer for the rest.
type flight struct {
	done   chan struct{}
	resp   QueryResponse
	err    error
	refs   int
	cancel context.CancelFunc
}

// shared collapses concurrent identical queries: the first caller starts
// fn on a detached context (capped by the server's QueryTimeout) and
// every caller with the same key joins the run, receiving the shared
// answer — marked Cache "dedup" for joiners — or the shared error. A
// caller whose own ctx expires leaves with its own ctx.Err(); when the
// last caller leaves, the run itself is cancelled, its worker slot freed
// and its (cancelled) result discarded.
func (e *queryEngine) shared(ctx context.Context, key string, fn func(context.Context) (QueryResponse, error)) (QueryResponse, error) {
	e.fmu.Lock()
	if f, ok := e.flights[key]; ok && f.refs > 0 {
		f.refs++
		e.fmu.Unlock()
		return e.await(ctx, f, true)
	}
	// No flight, or only a doomed one (every waiter already left, so its
	// cancellation is in progress): start a fresh run rather than inherit
	// a stranger's ctx error. The doomed flight's map entry is replaced
	// here and its goroutine's delete below is conditional, so the
	// replacement is never clobbered.
	base := context.Background()
	var fctx context.Context
	var cancel context.CancelFunc
	if e.cfg.QueryTimeout > 0 {
		fctx, cancel = context.WithTimeout(base, e.cfg.QueryTimeout)
	} else {
		fctx, cancel = context.WithCancel(base)
	}
	f := &flight{done: make(chan struct{}), refs: 1, cancel: cancel}
	e.flights[key] = f
	e.fmu.Unlock()
	go func() {
		defer cancel()
		resp, err := fn(fctx)
		e.fmu.Lock()
		if e.flights[key] == f {
			delete(e.flights, key)
		}
		f.resp, f.err = resp, err
		e.fmu.Unlock()
		close(f.done)
	}()
	return e.await(ctx, f, false)
}

// await blocks until the flight completes or the caller's context
// expires, whichever comes first.
func (e *queryEngine) await(ctx context.Context, f *flight, joined bool) (QueryResponse, error) {
	select {
	case <-f.done:
		if err := ctx.Err(); err != nil {
			// The flight finished, but this caller's own deadline had
			// already expired. On a busy box a CPU-bound run can delay
			// timer delivery until the flight's own completion, making
			// both select cases ready at once — and deadline enforcement
			// must not ride on that coin flip. The caller gets its
			// context error; a successful flight's answer is cached for
			// the next query regardless.
			return QueryResponse{}, err
		}
		resp, err := f.resp, f.err
		if err == nil && joined {
			resp.Cache = "dedup"
		}
		return resp, err
	case <-ctx.Done():
		e.fmu.Lock()
		f.refs--
		last := f.refs == 0
		e.fmu.Unlock()
		if last {
			f.cancel() // nobody is listening anymore: abort the run
		}
		return QueryResponse{}, ctx.Err()
	}
}

// pathDigestEntry memoizes a file's content digest keyed by its stat, so
// an unchanged file never needs re-reading for a cache lookup.
type pathDigestEntry struct {
	mtime  time.Time
	size   int64
	digest string
}

func (e *queryEngine) pathDigest(full string, st os.FileInfo) (string, bool) {
	v, ok := e.digests.get(full)
	if !ok {
		return "", false
	}
	d := v.(pathDigestEntry)
	if !d.mtime.Equal(st.ModTime()) || d.size != st.Size() {
		return "", false
	}
	return d.digest, true
}

func (e *queryEngine) storePathDigest(full string, st os.FileInfo, digest string) {
	e.digests.put(full, pathDigestEntry{mtime: st.ModTime(), size: st.Size(), digest: digest})
}

// maxPathDigests bounds the digest memo; the least recently used path is
// evicted when it fills. Small on purpose — a miss only costs one
// read+hash, so the memo needs to cover hot paths, not every path ever
// referenced.
const maxPathDigests = 256

// startQuery roots a discovery's own "query" trace — never a child of the
// request's: a batch run lives on a flight context whose initiating
// request's span may end, or be shared with other waiters, mid-run. It is
// forced when that request was sampled (reqSpan; http_trace_id joins the
// two traces in /debug/traces) or asked for explain.
func (e *queryEngine) startQuery(ctx context.Context, pl queryPlan, reqSpan *trace.Span) (context.Context, *trace.Span) {
	var sopts []trace.StartOption
	if pl.req.Explain || reqSpan != nil {
		sopts = append(sopts, trace.Forced())
	}
	ctx, qsp := e.cfg.Tracer.Start(ctx, "query", sopts...)
	qsp.Str("algo", pl.res.Algo)
	if reqSpan != nil {
		qsp.Str("http_trace_id", reqSpan.TraceID())
	}
	return ctx, qsp
}

// mine is the one place the server runs a planned discovery, batch or
// historical: the run under qsp (ended here, so the profile can be
// collected), its statistics into the per-algorithm counters, and the
// answer in the wire schema — convoys named through labels (never nil, so
// an empty answer encodes as []), stats when a CuTS variant ran, the stage
// profile when the request asked for explain. A non-nil cl replaces the
// default per-tick clusterer.
func (e *queryEngine) mine(ctx context.Context, qsp *trace.Span, pl queryPlan, db *model.DB, cl core.Clusterer, labels func(model.ObjectID) string) (convoys []ConvoyJSON, stats *StatsJSON, explain *ExplainJSON, err error) {
	var st core.Stats
	res, err := core.NewQuery(pl.options(cl, &st)...).Run(ctx, db)
	qsp.End()
	if err != nil {
		return nil, nil, nil, err
	}
	e.cfg.metrics.observeRunStats(pl.res.Algo, st)
	convoys = make([]ConvoyJSON, len(res))
	for i, c := range res {
		convoys[i] = wire.ConvoyToJSON(c, labels)
	}
	if !pl.res.IsCMC {
		js := wire.StatsToJSON(st)
		stats = &js
	}
	if pl.req.Explain {
		if tj, ok := qsp.Collect(); ok {
			if ex, ok := ExplainFromTrace(tj); ok {
				explain = &ex
			}
		}
	}
	return convoys, stats, explain, nil
}

// compute parses the database and runs the planned algorithm under the
// given context; the caller holds a worker slot. Cancelled computations
// return the context error and never touch the cache.
func (e *queryEngine) compute(ctx context.Context, digest string, data []byte, pl queryPlan, reqSpan *trace.Span) (QueryResponse, error) {
	e.cfg.metrics.queryComputes.Inc()
	if e.onComputeStart != nil {
		e.onComputeStart()
	}
	ctx, qsp := e.startQuery(ctx, pl, reqSpan)
	qsp.Str("digest", digest)
	defer qsp.End() // idempotent; mine ends it before collecting the profile
	t0 := time.Now()
	resp := QueryResponse{
		Convoys:   []ConvoyJSON{},
		Params:    pl.res.Spec.Params,
		Algo:      pl.res.Algo,
		Clusterer: pl.res.Clusterer,
		From:      pl.req.From,
		To:        pl.req.To,
		Digest:    digest,
		Cache:     "miss",
	}
	if len(e.cfg.Shards) > 0 {
		// Coordinator mode: fan the query out over the shard fleet and merge
		// the partials. Placed here — under the flight — so sharded queries
		// inherit the cache, the dedup of identical concurrent queries and
		// the worker-slot bound exactly like local ones.
		if err := e.computeSharded(ctx, qsp, &resp, data, pl); err != nil {
			return QueryResponse{}, err
		}
		return e.answered(resp, pl, t0, nil), nil
	}
	var db *model.DB
	var err error
	var cl core.Clusterer         // non-default per-tick clusterer, if any
	var sliceIDs []model.ObjectID // new dense ID → original, when windowed
	if pl.res.Clusterer == proxgraph.Backend {
		// A proxgraph query uploads an edge CSV (a,b,t,w contact log). The
		// log synthesizes a positionless stand-in database — one row per
		// object spanning its first to last contact — and the clusterer
		// reads the contact graph itself, tick by tick, from the log.
		log, lerr := proxgraph.ReadLog(bytes.NewReader(data))
		if lerr != nil {
			return QueryResponse{}, badRequest(lerr)
		}
		if pl.res.Windowed {
			// Window the contact log by keeping only the records inside
			// [from, to] — the per-tick clusters are a pure function of that
			// tick's edges, so the windowed log answers the windowed query.
			if log, lerr = log.Window(pl.res.From, pl.res.To); lerr != nil {
				return QueryResponse{}, badRequest(lerr)
			}
		}
		db, err = log.DB()
		if err != nil {
			return QueryResponse{}, badRequest(err)
		}
		qsp.Str("clusterer", pl.res.Clusterer)
		cl = log.Clusterer()
	} else {
		db, err = parseDB(data)
		if err != nil {
			return QueryResponse{}, badRequest(err) // unparseable database
		}
		if pl.res.Windowed {
			// Interpolation-aware slice: real samples inside the window plus
			// virtual boundary samples, so the windowed answer equals the
			// full answer restricted to [from, to].
			db, sliceIDs = core.SliceTime(db, pl.res.From, pl.res.To)
		}
	}
	labels := wire.DBLabels(db)
	if sliceIDs != nil {
		// Unlabeled objects fall back to "o<ID>"; keep that naming anchored
		// to the original database's IDs, not the sliced copy's dense ones.
		orig := labels
		labels = func(id model.ObjectID) string {
			if name := orig(id); name != "" {
				return name
			}
			return fmt.Sprintf("o%d", sliceIDs[id])
		}
	}
	var explain *ExplainJSON
	if resp.Convoys, resp.Stats, explain, err = e.mine(ctx, qsp, pl, db, cl, labels); err != nil {
		return QueryResponse{}, err
	}
	return e.answered(resp, pl, t0, explain), nil
}

// answered completes a computed answer: elapsed time, a cache entry, and
// only then the profile — explain runs share their result with later plain
// queries, but a profile always describes the request that asked for it,
// never a stranger's cached run.
func (e *queryEngine) answered(resp QueryResponse, pl queryPlan, t0 time.Time, explain *ExplainJSON) QueryResponse {
	resp.ElapsedMS = float64(time.Since(t0).Microseconds()) / 1000
	if e.lru != nil {
		e.lru.put(pl.key(resp.Digest), resp)
	}
	resp.Explain = explain
	return resp
}

// lruCache is a minimal mutex-guarded LRU over string keys.
type lruCache struct {
	cap   int
	mu    sync.Mutex
	order *list.List // front = most recent; values are *lruEntry
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
}

func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*lruEntry).key)
	}
}

// len reports the number of cached entries (for tests).
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
