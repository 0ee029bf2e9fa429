package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/dbscan"
	"repro/internal/model"
	"repro/internal/simplify"
	"repro/internal/trace"
)

// Query is the context-first convoy discovery API: one value describing
// what to discover (the (m, k, e) parameters), how (algorithm variant,
// internal knobs, worker count) and how much (an optional result limit),
// built with functional options and executed against any database with
// Run — the batch answer — or Seq — an incremental stream that yields
// convoys as the scan closes them and stops the whole pipeline the moment
// the consumer breaks out.
//
// A Query is immutable after NewQuery and safe for concurrent use by
// multiple goroutines against the same or different databases — except
// when it carries a WithStats target, which is written unsynchronized at
// the end of each run: run such a Query from one goroutine at a time (or
// build one Query per goroutine, each with its own Stats target). Both
// Run and Seq honor their context at tick,
// λ-partition and candidate granularity, so cancelling mid-run returns
// ctx.Err() within roughly one unit of clustering work per worker; a
// cancelled run never returns a partial Result.
type Query struct {
	p         Params
	useCMC    bool
	variant   Variant
	clusterer Clusterer
	delta     float64
	lambda    int64
	tol       dbscan.ToleranceMode
	workers   int
	limit     int
	statsOut  *Stats

	// partitions > 1 selects the partition → local-mine → merge execution
	// plan for Run; see WithPartitions.
	partitions int

	// incremental is the churn threshold handed to the sources a CMC scan
	// or a refinement builds (DefaultChurnThreshold unless WithIncremental
	// says otherwise; ≤ 0 is off).
	incremental float64

	// Ablation switches; see WithAblation.
	noBoxPrune    bool
	noClipTime    bool
	noCandPruning bool
}

// Option configures a Query under construction.
type Option func(*Query)

// NewQuery builds a convoy query from options. There are no default
// parameters: set m, k and e (via M, K, Eps or WithParams) or Run/Seq fail
// validation. The algorithm defaults to CuTS* — the paper's fastest — with
// the automatic δ/λ guidelines; the run is serial unless WithWorkers says
// otherwise.
func NewQuery(opts ...Option) *Query {
	q := &Query{variant: VariantCuTSStar, incremental: DefaultChurnThreshold}
	for _, o := range opts {
		o(q)
	}
	return q
}

// M sets the minimum number of objects in a convoy.
func M(m int) Option { return func(q *Query) { q.p.M = m } }

// K sets the minimum convoy lifetime in consecutive time points.
func K(k int64) Option { return func(q *Query) { q.p.K = k } }

// Eps sets the density-connection distance threshold e.
func Eps(e float64) Option { return func(q *Query) { q.p.Eps = e } }

// WithParams sets all three convoy query parameters at once.
func WithParams(p Params) Option { return func(q *Query) { q.p = p } }

// WithVariant selects a CuTS family member (the default is CuTS*),
// replacing a previously selected CMC baseline.
func WithVariant(v Variant) Option {
	return func(q *Query) { q.variant, q.useCMC = v, false }
}

// WithCMC selects the Coherent Moving Cluster baseline: a plain per-tick
// scan with no filter step. δ/λ settings are ignored.
func WithCMC() Option { return func(q *Query) { q.useCMC = true } }

// WithClusterer selects the per-tick clustering backend (nil restores
// DefaultClusterer, the paper's grid-DBSCAN). A non-default backend
// requires the CMC algorithm — the CuTS filter's pruning bounds are
// theorems about Euclidean DBSCAN over polylines, so Run/Seq reject the
// combination — and the answers then follow the backend's density notion
// (e.g. proximity-graph connectivity) instead of Euclidean DBSCAN.
func WithClusterer(c Clusterer) Option { return func(q *Query) { q.clusterer = c } }

// WithDelta overrides the automatic simplification-tolerance guideline
// (values ≤ 0 restore it).
func WithDelta(delta float64) Option { return func(q *Query) { q.delta = delta } }

// WithLambda overrides the automatic time-partition-length guideline
// (values ≤ 0 restore it).
func WithLambda(lambda int64) Option { return func(q *Query) { q.lambda = lambda } }

// WithTolerance selects the filter's tolerance mode (actual — the tighter
// default — or global, Figure 14).
func WithTolerance(t dbscan.ToleranceMode) Option { return func(q *Query) { q.tol = t } }

// WithIncremental tunes the per-tick clustering of every snapshot the query
// clusters — the CMC scan's ticks and the CuTS family's refinement windows,
// which are that same scan over each candidate: it hands the threshold to
// the ClusterSources they build.
// threshold > 0 sets the churn threshold: the fraction of objects that may
// move, appear or vanish in one tick before the engine abandons patching
// the previous tick's structure and rebuilds from scratch. threshold ≤ 0
// takes the engine out entirely (every tick runs stateless from-scratch
// DBSCAN — the reference path).
//
// Without this option the engine is on at DefaultChurnThreshold wherever it
// applies: the default grid-DBSCAN backend. It never applies to the CuTS
// filter (which clusters simplified polylines, not snapshots) or to
// non-default backends, and nothing but this option switches it. The answer
// set is identical with and without — only Stats.ClusterPassesIncremental /
// ObjectsReclustered and the run time change.
func WithIncremental(threshold float64) Option {
	return func(q *Query) { q.incremental = threshold }
}

// WithWorkers sets the number of goroutines every pipeline stage may use;
// ≤ 1 runs serially. The answer set is identical for every worker count, and
// so is the schedule for Run, Seq and limited runs: a parallel tick scan
// always hands each worker contiguous chunks of ticks.
func WithWorkers(n int) Option { return func(q *Query) { q.workers = n } }

// DefaultWorkers returns the natural worker count for this machine.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// WithLimit stops discovery after n convoys have been delivered: Seq ends
// its iteration and Run returns only those answers, in both cases
// abandoning the remaining clustering work beyond what was already in flight
// (the chunk-unit bound documented on Seq; ≤ 0 means unlimited). Limited
// answers are served in stream order — the order convoys close in time —
// which is a prefix of the work, not of the canonically sorted Result.
func WithLimit(n int) Option { return func(q *Query) { q.limit = n } }

// WithStats directs the run's statistics (phase timings, filter counters,
// clustering passes) into st. The target is written once per Run/Seq
// completion — also after a cancelled or limit-stopped run, where
// Stats.ClusterPasses meters how much work the abort saved.
func WithStats(st *Stats) Option { return func(q *Query) { q.statsOut = st } }

// WithAblation sets the paper's Section 7 ablation switches on the CuTS
// filter: no Lemma 2 box pruning, no CuTS*-only clipping of segments to the
// partition window, no dominated-candidate elimination before refinement.
// None of them changes the answer set (tests enforce this); they exist so
// benchmarks can isolate the cost and benefit of each design choice.
func WithAblation(noBoxPrune, noClipTime, noCandPruning bool) Option {
	return func(q *Query) {
		q.noBoxPrune, q.noClipTime, q.noCandPruning = noBoxPrune, noClipTime, noCandPruning
	}
}

// Params returns the query's (m, k, e) parameters.
func (q *Query) Params() Params { return q.p }

// Run answers the query over the whole database and returns the canonical
// result: the collected Seq, canonicalized. (Exact whatever order the raw
// emissions arrive in: the stream only ever drops one that a released convoy
// dominates, so its maximal elements are theirs.) Cancelling ctx aborts the
// discovery pipeline at tick/partition/candidate granularity and returns
// ctx.Err(); with WithLimit the run stops early and returns the first
// convoys delivered (canonicalized among themselves).
func (q *Query) Run(ctx context.Context, db *model.DB) (Result, error) {
	if q.partitions > 1 && (q.clusterer == nil || q.clusterer.Name() == DefaultBackend) {
		return q.runPartitioned(ctx, db)
	}
	var out []Convoy
	err := q.stream(ctx, db, func(c Convoy) bool {
		out = append(out, c)
		return true
	})
	if err != nil {
		return nil, err
	}
	return Canonicalize(out), nil
}

// Seq answers the query incrementally: it returns an iterator yielding
// convoys as the scan closes them — CMC candidates the tick their chain
// dies, CuTS candidates as their refinement windows complete — instead of
// materializing the full Result first. WithLimit breaks automatically after
// n convoys.
//
// Breaking out of the loop stops the underlying pipeline on the schedule
// every run uses (there is no separate streaming schedule): workers test for
// the stop before each unit of work, so Seq returns within one clustering
// pass per worker, and nothing new starts. What had already started is
// bounded by the scheduler's window, in its unit: a CMC scan that had folded
// c ticks has clustered at most c + (2·workers + 1)·scanChunk of them
// (scanChunk = 512 ticks; exactly c when serial), a CuTS refinement that had
// folded c candidates has refined at most c + 2·workers + 1.
//
// Collecting the whole sequence yields exactly the convoys of Run — Run is
// that collection, canonically sorted — in stream order rather than
// canonical order: every yielded convoy is an exact maximal answer and none
// is yielded twice. On failure — including ctx cancellation — the iterator
// yields one final (zero Convoy, error) pair and stops.
func (q *Query) Seq(ctx context.Context, db *model.DB) iter.Seq2[Convoy, error] {
	return func(yield func(Convoy, error) bool) {
		broke := false
		err := q.stream(ctx, db, func(c Convoy) bool {
			if !yield(c, nil) {
				broke = true
				return false
			}
			return true
		})
		if err != nil && !broke {
			yield(Convoy{}, err)
		}
	}
}

// run is the execution core under stream: it validates the query, opens the
// "run" span, meters the clustering work into the WithStats target and drives
// the selected algorithm. Every convoy handed to emit is final (maximal,
// never repeated — see canonFilter); emit returns false to stop the pipeline.
func (q *Query) run(ctx context.Context, db *model.DB, emit func(Convoy) bool) error {
	st := Stats{Variant: q.variant, Workers: q.workers}
	if st.Workers < 1 {
		st.Workers = 1
	}
	var meter scanMeter
	defer func() {
		if q.statsOut != nil {
			st.ClusterPasses = atomic.LoadInt64(&meter.passes)
			st.ClusterPassesIncremental = atomic.LoadInt64(&meter.incremental)
			st.ClusterPassesFull = st.ClusterPasses - st.ClusterPassesIncremental
			st.ObjectsReclustered = atomic.LoadInt64(&meter.reclustered)
			*q.statsOut = st
		}
	}()
	if err := q.p.Validate(); err != nil {
		return err
	}
	cl := q.clusterer
	if cl == nil {
		cl = DefaultClusterer
	}
	if !q.useCMC && cl.Name() != DefaultBackend {
		return fmt.Errorf("core: clusterer %q requires the CMC algorithm (the CuTS filter bounds are DBSCAN-specific); add WithCMC", cl.Name())
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// The "run" span is the discovery pipeline's root: its children are
	// the stage spans ("scan" for CMC; "simplify"/"filter"/"refine" for
	// the CuTS family), which is exactly the stage set an ?explain=true
	// breakdown reports. With no sampled trace in ctx this is a nil span
	// and every annotation below is a free no-op.
	ctx, sp := trace.StartSpan(ctx, "run")
	algo := "cmc"
	if !q.useCMC {
		algo = q.variant.String()
	}
	sp.Str("algo", algo).
		Int("m", int64(q.p.M)).Int("k", q.p.K).Float("e", q.p.Eps).
		Int("workers", int64(st.Workers))
	if cl.Name() != DefaultBackend {
		sp.Str("clusterer", cl.Name())
	}
	if q.limit > 0 {
		sp.Int("limit", int64(q.limit))
	}
	defer func() {
		sp.Int("cluster_passes", atomic.LoadInt64(&meter.passes))
		sp.End()
	}()
	if q.useCMC {
		return q.runCMC(ctx, db, cl, &meter, emit)
	}
	return q.runCuTS(ctx, db, &st, &meter, emit)
}

// stream is the one way Run and Seq reach the pipeline: it executes the
// query, handing emit each final convoy as it is released, and applies the
// result limit.
func (q *Query) stream(ctx context.Context, db *model.DB, emit func(Convoy) bool) error {
	delivered := 0
	return q.run(ctx, db, func(c Convoy) bool {
		if !emit(c) {
			return false
		}
		delivered++
		return q.limit <= 0 || delivered < q.limit
	})
}

// runCMC scans the whole time domain with the CMC algorithm, clustering
// each tick with cl — through sources at the query's incremental threshold,
// on cmcScan's one schedule — and releasing closed convoys as they become
// final.
func (q *Query) runCMC(ctx context.Context, db *model.DB, cl Clusterer, meter *scanMeter, emit func(Convoy) bool) error {
	lo, hi, ok := db.TimeRange()
	if !ok {
		return nil
	}
	ctx, sp := trace.StartSpan(ctx, "scan")
	sp.Int("ticks", model.TickSpan(lo, hi)).
		Str("incremental", strconv.FormatBool(incrementalApplies(cl, q.incremental)))
	defer func() {
		sp.Int("objects_reclustered", atomic.LoadInt64(&meter.reclustered))
		sp.End()
	}()
	tm := newStageTimer(sp)
	defer tm.flush()
	return cmcScan(ctx, db, q.p, lo, hi, nil, q.workers,
		func() *ClusterSource { return newSource(q.p.ClusterKey(), cl, q.incremental, meter) },
		tm, emitBatches(emit))
}

// emitBatches adapts a per-convoy emit to cmcScan's per-tick batch
// emissions: each batch is reduced by a canonFilter first, so every convoy
// handed to emit is final (maximal, never repeated).
func emitBatches(emit func(Convoy) bool) func([]Convoy) bool {
	var f canonFilter
	return func(batch []Convoy) bool {
		for _, c := range f.reduce(batch) {
			if !emit(c) {
				return false
			}
		}
		return true
	}
}

// ErrTickDomain rejects a CuTS-family query over a database whose ticks
// lie beyond ±2^53: simplified segments carry their times as float64, which
// cannot tell such ticks apart, so the filter's bounds would be computed on
// the wrong instants. It is the caller's data, not a fault of the run.
var ErrTickDomain = errors.New("core: the CuTS family cannot represent ticks beyond ±2^53")

// maxExactTick is the largest tick magnitude a float64 holds exactly.
const maxExactTick = model.Tick(1) << 53

// runCuTS executes the filter-refinement pipeline: simplify (the δ
// guideline when no δ was given, then cancellable per trajectory), filter
// (cancellable per λ-partition), then refinement (cancellable per
// candidate). Candidates are refined in ascending
// window-start order and discovered convoys are released as soon as no
// unprocessed candidate window could still dominate them — the
// start-watermark argument documented on refineStreaming.
func (q *Query) runCuTS(ctx context.Context, db *model.DB, st *Stats, meter *scanMeter, emit func(Convoy) bool) error {
	lo, hi, ok := db.TimeRange()
	if ok && (lo < -maxExactTick || hi > maxExactTick) {
		return fmt.Errorf("%w: the database spans [%d, %d] (the CMC algorithm has no such limit)", ErrTickDomain, lo, hi)
	}
	// Choosing δ is a Douglas–Peucker run of its own (the guideline's δ = 0
	// profile), so it is timed and traced as part of the simplify stage.
	t0 := time.Now()
	sctx, ssp := trace.StartSpan(ctx, "simplify")
	delta, auto := q.delta, int64(0)
	if delta <= 0 {
		delta, auto = ComputeDelta(db, q.p.Eps), 1
	}
	st.Delta = delta
	ssp.Float("delta", delta).Int("delta_auto", auto)
	sts, err := simplify.SimplifyAllWorkers(sctx, db, delta, q.variant.SimplifyMethod(), q.workers)
	st.SimplifyTime = time.Since(t0)
	if err != nil {
		ssp.End()
		return err
	}
	for _, s := range sts {
		st.VertexKept += s.Len()
		st.VertexTotal += s.Orig.Len()
	}
	ssp.Int("vertex_kept", int64(st.VertexKept)).Int("vertex_total", int64(st.VertexTotal))
	ssp.End()

	lambda := q.lambda
	if lambda <= 0 {
		lambda = ComputeLambda(db, sts, q.p.K)
	}
	st.Lambda = lambda
	if ok {
		st.NumPartitions = lambdaPartitions(lo, hi, lambda)
	}

	t1 := time.Now()
	fctx, fsp := trace.StartSpan(ctx, "filter")
	fsp.Int("lambda", lambda).Int("partitions", int64(st.NumPartitions))
	cands, err := filterScan(fctx, db, q.p, sts, FilterConfig{
		Lambda:             lambda,
		Bound:              q.variant.Bound(),
		Tolerance:          q.tol,
		Delta:              delta,
		NoBoxPrune:         q.noBoxPrune,
		NoClipTime:         q.noClipTime,
		NoCandidatePruning: q.noCandPruning,
		Workers:            q.workers,
	}, &meter.passes)
	st.FilterTime = time.Since(t1)
	if err != nil {
		fsp.End()
		return err
	}
	st.NumCandidates = len(cands)
	for _, c := range cands {
		st.RefineUnits += c.RefinementUnits()
	}
	fsp.Int("candidates", int64(st.NumCandidates))
	fsp.End()

	t2 := time.Now()
	rctx, rsp := trace.StartSpan(ctx, "refine")
	rsp.Int("candidates", int64(st.NumCandidates)).Float("refine_units", st.RefineUnits)
	defer rsp.End()
	defer func() { st.RefineTime = time.Since(t2) }()
	return q.refineStreaming(rctx, db, cands, meter, emit)
}

// refineStreaming refines candidates in ascending window-start order and
// streams each discovered convoy the moment it becomes final.
//
// Why this is sound: every convoy discovered by refining candidate c lies
// inside c's window, so its start is ≥ c.Start. A convoy v can therefore
// only be dominated by output of candidates whose Start is ≤ v.Start.
// Processing candidates in ascending Start order, once the next unrefined
// candidate's Start exceeds v.Start, every potential dominator of v has
// already been produced — v is final and safe to release. The canonFilter
// keeps the released set maximal and duplicate-free, so collecting the
// stream equals the canonical batch answer.
func (q *Query) refineStreaming(ctx context.Context, db *model.DB, cands []Candidate, meter *scanMeter, emit func(Convoy) bool) error {
	ordered := make([]Candidate, len(cands))
	copy(ordered, cands)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Start != ordered[j].Start {
			return ordered[i].Start < ordered[j].Start
		}
		return ordered[i].End < ordered[j].End
	})

	var f canonFilter
	var pending []Convoy
	flushReady := func(watermark model.Tick, all bool) bool {
		var ready, still []Convoy
		for _, c := range pending {
			if all || c.Start < watermark {
				ready = append(ready, c)
			} else {
				still = append(still, c)
			}
		}
		pending = still
		for _, c := range f.reduce(ready) {
			if !emit(c) {
				return false
			}
		}
		return true
	}

	stopped := false
	err := refineScan(ctx, db, q.p, ordered, q.workers, q.incremental, meter, func(i int, raw []Convoy) bool {
		pending = append(pending, raw...)
		if i+1 < len(ordered) && !flushReady(ordered[i+1].Start, false) {
			stopped = true
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if !stopped {
		flushReady(0, true)
	}
	return nil
}

// canonFilter turns raw convoy emissions into canonical streaming output:
// reduce canonicalizes each batch and drops convoys dominated by an
// already-released answer. Its soundness contract is that the producer
// never emits a convoy that dominates an earlier batch's survivor — true
// for the CMC tick scan (a dominator must outlive its subsets, so it
// closes at the same tick or never) and for the start-ordered refinement
// stream (see refineStreaming); the differential harness pins it down (a
// late dominator would make the stream longer than its own canonical form).
type canonFilter struct {
	released []Convoy
}

// reduce canonicalizes the batch against itself and the released set, and
// records the survivors as released.
func (f *canonFilter) reduce(batch []Convoy) []Convoy {
	if len(batch) == 0 {
		return nil
	}
	// A lone convoy is canonical among itself, and most ticks that close any
	// convoy close one.
	canon := batch
	if len(batch) > 1 {
		canon = Canonicalize(batch)
	}
	out := canon[:0]
	for _, c := range canon {
		dominated := false
		for _, y := range f.released {
			if c.DominatedBy(y) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	f.released = append(f.released, out...)
	return out
}
