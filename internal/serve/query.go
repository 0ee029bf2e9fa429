package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/model"
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

	// datasets keeps parsed databases by content digest, LRU within a budget
	// of decoded bytes (datasetBudgetBodies × MaxBodyBytes), so a query over
	// content this server has parsed before skips the decode. A *model.DB is
	// read-only once built, so concurrent queries mine one copy. An entry is
	// only ever mined by a query that hashed its own input to the entry's
	// key — the memo above never vouches for one (see load).
	datasets *lruCache

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
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.QueryWorkers),
		digests:  newLRUCache(maxPathDigests),
		datasets: newLRUCache(datasetBudgetBodies * cfg.MaxBodyBytes),
		flights:  make(map[string]*flight),
	}
	if cfg.CacheEntries > 0 {
		e.lru = newLRUCache(int64(cfg.CacheEntries))
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
		return notFound(path)
	}
	return fmt.Errorf("serve: read database %q: %v", path, errors.Unwrap(err))
}

func notFound(path string) error { return fmt.Errorf("%w: %q", errDBNotFound, path) }

// queryPlan is a validated query: the canonical spec resolved by the one
// shared validator (wire.QuerySpec.Normalize) plus the server-side worker
// clamp.
type queryPlan struct {
	req QueryRequest
	// res is the resolved spec: validated params, algorithm and window
	// bounds.
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
// must share an entry), the worker count never participates (parallel
// output equals serial output by construction), and a from/to window —
// which does change the answer — extends the key only when present, so
// unwindowed keys keep their legacy shape.
func (pl queryPlan) key(digest string) string {
	key := fmt.Sprintf("%s|%d|%d|%g|%s|%g|%d",
		digest, pl.res.P.M, pl.res.P.K, pl.res.P.Eps, pl.res.Algo,
		pl.res.Spec.Delta, pl.res.Spec.Lambda)
	if pl.res.Windowed {
		key += fmt.Sprintf("|w%d:%d", pl.res.From, pl.res.To)
	}
	return key
}

func hashBytes(data []byte) string { return hexDigest(sha256.Sum256(data)) }

func hexDigest(sum [sha256.Size]byte) string { return hex.EncodeToString(sum[:]) }

// streamHasher is the pooled state of one streamed digest: hashing a file
// through it allocates nothing and never holds more than buf of the file.
type streamHasher struct {
	h   hash.Hash
	buf [256 << 10]byte
	sum [sha256.Size]byte
}

var streamHashers = sync.Pool{New: func() any { return &streamHasher{h: sha256.New()} }}

// hashStream digests r to its end, adding the bytes seen and the time spent
// reading and hashing them to st. The read loop is spelled out because
// io.Copy would hand an *os.File's bytes over through a buffer of its own.
func hashStream(r io.Reader, st *loadStats) ([sha256.Size]byte, error) {
	s := streamHashers.Get().(*streamHasher)
	defer streamHashers.Put(s)
	s.h.Reset()
	for {
		t0 := time.Now()
		n, err := r.Read(s.buf[:])
		t1 := time.Now()
		s.h.Write(s.buf[:n])
		st.read += t1.Sub(t0)
		st.digest += time.Since(t1)
		st.bytes += int64(n)
		if err == io.EOF {
			s.h.Sum(s.sum[:0])
			return s.sum, nil
		}
		if err != nil {
			return [sha256.Size]byte{}, err
		}
	}
}

// hashFile is hashStream over the file at full.
func hashFile(full string, st *loadStats) ([sha256.Size]byte, error) {
	f, err := os.Open(full)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	defer f.Close()
	return hashStream(f, st)
}

// cached returns the LRU answer for the key, marked as a hit: no run
// statistics, no elapsed time.
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
// exemplar when the request is traced). Both kinds share everything but how
// their source is named: plan, deadline, cache first, then load+compute
// under a worker slot, deduplicating identical concurrent queries.
func (e *queryEngine) run(ctx context.Context, data []byte, req QueryRequest) (resp QueryResponse, err error) {
	t0 := time.Now()
	algo := algoInvalid
	defer func() {
		e.cfg.metrics.observeQuery(algo, resp.Cache, err, time.Since(t0), trace.FromContext(ctx).TraceID())
	}()
	pl, err := plan(req, e.cfg.MaxWorkersPerQuery)
	if err != nil {
		return QueryResponse{}, err
	}
	algo = pl.res.Algo
	ctx, cancel := e.requestCtx(ctx, req)
	defer cancel()
	var src source
	if data != nil {
		src = source{digest: hashBytes(data), data: data}
	} else if src, err = e.pathSource(ctx, req.Path); err != nil {
		return QueryResponse{}, err
	}
	if !pl.req.Explain {
		// An explain query bypasses the cache read: the profile must
		// describe a run this request actually performed.
		if resp, ok := e.cached(pl.key(src.digest)); ok {
			return resp, nil
		}
	}
	return e.fly(ctx, flightKey(pl, src.digest), pl, src)
}

// fly runs the planned query over src as the flight for key — or joins the
// one already in the air — computing under a worker slot.
func (e *queryEngine) fly(ctx context.Context, key string, pl queryPlan, src source) (QueryResponse, error) {
	reqSpan := trace.FromContext(ctx)
	return e.shared(ctx, key, func(fctx context.Context) (QueryResponse, error) {
		release, err := e.acquire(fctx)
		if err != nil {
			return QueryResponse{}, err
		}
		defer release()
		return e.compute(fctx, pl, src, reqSpan)
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

// pathSource names the file a path-referencing query mines. A memo of path
// → (stat, digest) lets repeat queries against an unchanged file hit the
// cache without touching the disk at all; only a cold memo (or a changed
// file) pays the hash, and every disk read happens under a worker slot so a
// burst of cold-path queries cannot hold more than QueryWorkers database
// files in memory at once.
func (e *queryEngine) pathSource(ctx context.Context, path string) (source, error) {
	full, err := e.resolve(path)
	if err != nil {
		return source{}, err
	}
	st, err := os.Stat(full)
	if err != nil {
		return source{}, readErr(path, err)
	}
	if !st.Mode().IsRegular() {
		// A directory would fail the read with a server-fault class, and a
		// FIFO would hold its worker slot until somebody wrote to it.
		return source{}, notFound(path)
	}
	digest, ok := e.pathDigest(full, st)
	if !ok {
		// Cold memo: the digest (the cache and dedup key) requires reading
		// the file. Stream it through the hash under a briefly-held worker
		// slot, keeping none of it — the flight reads again in load, so cold
		// queries queued for a compute slot never pin file contents in
		// memory while they wait.
		release, aerr := e.acquire(ctx)
		if aerr != nil {
			return source{}, aerr
		}
		sum, herr := hashFile(full, new(loadStats))
		release()
		if herr != nil {
			return source{}, readErr(path, herr)
		}
		digest = hexDigest(sum)
		e.storePathDigest(full, st, digest)
	}
	return source{digest: digest, path: path, full: full}, nil
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
	e.digests.put(full, pathDigestEntry{mtime: st.ModTime(), size: st.Size(), digest: digest}, 1)
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
// profile when the request asked for explain.
func (e *queryEngine) mine(ctx context.Context, qsp *trace.Span, pl queryPlan, db *model.DB, labels func(model.ObjectID) string) (convoys []ConvoyJSON, stats *StatsJSON, explain *ExplainJSON, err error) {
	var st core.Stats
	res, err := core.NewQuery(pl.res.Options(pl.workers, &st)...).Run(ctx, db)
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
			if ex, ok := wire.ExplainFromTrace(tj); ok {
				explain = &ex
			}
		}
	}
	return convoys, stats, explain, nil
}

// source is what a query mines, as its request named it: an upload's bytes
// under their digest, or a file under the digest its stat-keyed memo holds —
// a hint that load must confirm against the bytes before anything trusts it.
type source struct {
	digest string
	data   []byte // the upload; nil for a path query
	path   string // the client's spelling, for error messages
	full   string // the same file inside the data dir
}

// loaded is a query's input, ready to mine.
type loaded struct {
	// digest is the SHA-256 of the bytes db was parsed from, taken by this
	// request.
	digest string
	// data is those bytes; nil when a resident dataset was confirmed by a
	// streamed hash, which keeps none.
	data []byte
	db   *model.DB
}

// loadStats is what one load cost, for its span.
type loadStats struct {
	bytes                int64
	read, digest, decode time.Duration
}

// load turns src into a database the miner may read, under a "load" span.
// A path query's bytes are hashed here, as the file holds them now, and a
// resident dataset is mined only when that hash equals its key: a file
// swapped behind an unchanged stat costs its query one more read — never a
// stale parse, never an answer cached under another content's digest.
func (e *queryEngine) load(ctx context.Context, pl queryPlan, src source) (in loaded, err error) {
	_, sp := trace.StartSpan(ctx, "load")
	defer sp.End()
	var st loadStats
	outcome := "parsed"
	defer func() {
		if err != nil {
			return
		}
		e.cfg.metrics.datasetLoads.With(outcome).Inc()
		sp.Str("dataset", outcome).Int("bytes", st.bytes).
			Float("read_ms", msFloat(st.read)).
			Float("digest_ms", msFloat(st.digest)).
			Float("decode_ms", msFloat(st.decode))
	}()
	if src.data == nil {
		// A coordinator ships the bytes to its shards; any other query needs
		// only the proof that the file still holds what the resident dataset
		// was parsed from.
		if db, ok := e.datasets.get(src.digest); ok && len(e.cfg.Shards) == 0 {
			sum, herr := hashFile(src.full, &st)
			if herr != nil {
				return loaded{}, readErr(src.path, herr)
			}
			if hexDigest(sum) == src.digest {
				outcome = "resident"
				return loaded{digest: src.digest, db: db.(*model.DB)}, nil
			}
		}
		t0 := time.Now()
		if src.data, err = os.ReadFile(src.full); err != nil {
			return loaded{}, readErr(src.path, err)
		}
		t1 := time.Now()
		src.digest = hashBytes(src.data)
		st.read += t1.Sub(t0)
		st.digest += time.Since(t1)
	}
	st.bytes = int64(len(src.data))
	in = loaded{digest: src.digest, data: src.data}
	t0 := time.Now()
	var resident bool
	if in.db, resident, err = e.dataset(in.digest, in.data); err != nil {
		return loaded{}, badRequest(err) // unparseable database
	}
	if resident {
		outcome = "resident"
	} else {
		st.decode = time.Since(t0)
	}
	return in, nil
}

// datasetBudgetBodies sizes the dataset store in units of the largest
// upload the server accepts (MaxBodyBytes).
const datasetBudgetBodies = 4

// dataset is get-or-parse: the database resident under digest, or data —
// whose hash the caller vouches digest is — parsed and retained under it. A
// dataset larger than the whole budget is returned without being kept, and
// two first touches of one content may both parse it; the later put wins.
func (e *queryEngine) dataset(digest string, data []byte) (db *model.DB, resident bool, err error) {
	if v, ok := e.datasets.get(digest); ok {
		return v.(*model.DB), true, nil
	}
	if db, err = tsio.Decode(data); err != nil {
		return nil, false, err
	}
	cost := int64(db.SumTrajLen()) * int64(unsafe.Sizeof(model.Sample{}))
	for _, tr := range db.Trajectories() {
		cost += int64(len(tr.Label))
	}
	e.cfg.metrics.datasetEvictions.Add(float64(e.datasets.put(digest, db, cost)))
	return db, false, nil
}

// compute loads the database and runs the planned algorithm under the
// given context; the caller holds a worker slot. Cancelled computations
// return the context error and never touch the cache.
func (e *queryEngine) compute(ctx context.Context, pl queryPlan, src source, reqSpan *trace.Span) (QueryResponse, error) {
	e.cfg.metrics.queryComputes.Inc()
	if e.onComputeStart != nil {
		e.onComputeStart()
	}
	ctx, qsp := e.startQuery(ctx, pl, reqSpan)
	defer qsp.End() // idempotent; mine ends it before collecting the profile
	t0 := time.Now()
	in, err := e.load(ctx, pl, src)
	if err != nil {
		return QueryResponse{}, err
	}
	qsp.Str("digest", in.digest)
	resp := QueryResponse{
		Convoys: []ConvoyJSON{},
		Params:  pl.res.Spec.Params,
		Algo:    pl.res.Algo,
		From:    pl.req.From,
		To:      pl.req.To,
		Digest:  in.digest,
		Cache:   "miss",
	}
	if len(e.cfg.Shards) > 0 {
		// Coordinator mode: fan the query out over the shard fleet and merge
		// the partials. Placed here — under the flight — so sharded queries
		// inherit the cache, the dedup of identical concurrent queries and
		// the worker-slot bound exactly like local ones.
		if err := e.computeSharded(ctx, qsp, &resp, in, pl); err != nil {
			return QueryResponse{}, err
		}
		return e.answered(resp, pl, t0, nil), nil
	}
	db, labels := in.db, wire.DBLabels(in.db)
	if pl.res.Windowed {
		// Interpolation-aware slice: real samples inside the window plus
		// virtual boundary samples, so the windowed answer equals the
		// full answer restricted to [from, to]. The slice is a copy — the
		// resident database is shared and never written — and renumbers
		// densely, so the labels stay anchored to the original IDs.
		var sliceIDs []model.ObjectID
		db, sliceIDs = core.SliceTime(db, pl.res.From, pl.res.To)
		labels = wire.DBLabels(db, sliceIDs...)
	}
	var explain *ExplainJSON
	if resp.Convoys, resp.Stats, explain, err = e.mine(ctx, qsp, pl, db, labels); err != nil {
		return QueryResponse{}, err
	}
	return e.answered(resp, pl, t0, explain), nil
}

// answered completes a computed answer: elapsed time, a cache entry, and
// only then the profile — explain runs share their result with later plain
// queries, but a profile always describes the request that asked for it,
// never a stranger's cached run. The entry keeps no stats either: they
// describe this run, and the key leaves out the worker count, which changes
// the run but not the answer.
func (e *queryEngine) answered(resp QueryResponse, pl queryPlan, t0 time.Time, explain *ExplainJSON) QueryResponse {
	resp.ElapsedMS = float64(time.Since(t0).Microseconds()) / 1000
	if e.lru != nil {
		entry := resp
		entry.Stats = nil
		e.lru.put(pl.key(resp.Digest), entry, 1)
	}
	resp.Explain = explain
	return resp
}

// lruCache is a minimal mutex-guarded LRU over string keys. Each entry
// carries a cost and the cache holds at most budget of it: 1 apiece makes
// budget an entry count, a dataset's decoded size makes it a byte budget.
type lruCache struct {
	budget int64
	mu     sync.Mutex
	cost   int64      // Σ entry costs; ≤ budget between calls
	order  *list.List // front = most recent; values are *lruEntry
	items  map[string]*list.Element
}

type lruEntry struct {
	key  string
	val  any
	cost int64
}

func newLRUCache(budget int64) *lruCache {
	return &lruCache{
		budget: budget,
		order:  list.New(),
		items:  make(map[string]*list.Element),
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

// put stores val under key at the given cost and reports how many least
// recently used entries it evicted to stay within the budget. A value that
// would not fit an empty cache is not stored (and evicts nothing).
func (c *lruCache) put(key string, val any, cost int64) (evicted int) {
	if cost > c.budget {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*lruEntry)
		c.cost += cost - ent.cost
		ent.val, ent.cost = val, cost
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val, cost: cost})
		c.cost += cost
	}
	for c.cost > c.budget {
		last := c.order.Remove(c.order.Back()).(*lruEntry)
		delete(c.items, last.key)
		c.cost -= last.cost
		evicted++
	}
	return evicted
}

// len reports the number of cached entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// size reports the total cost of the cached entries.
func (c *lruCache) size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cost
}
