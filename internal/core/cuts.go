package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/dbscan"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/simplify"
	"repro/internal/trace"
)

// The CuTS family (Sections 5 and 6): filter-refinement convoy discovery
// over simplified trajectories.
//
// Filter (Algorithm 2): simplify every trajectory (DP / DP+ / DP*), divide
// the time domain into λ-length partitions, cluster each partition's
// simplified sub-polylines under the inflated distance bound of Lemma 1
// (or Lemma 3 for CuTS*), and chain the partition clusters into candidates
// exactly like CMC chains snapshot clusters. Overlapping segment-level
// clusters are merged into disjoint components and each candidate carries a
// *support set* (the union of every component it passed through); both
// measures make the refinement provably lossless (see Candidate.Support
// and dedupCandidates; the differential harness pins it).
//
// The partition scan is the tick scan's shape (filterScan): the partitions
// are walked in order by a cursor over the simplified segments' start and
// end events — O(alive) per partition, no search — and clustered on a
// scratch that is reset, never rebuilt, so a partition allocates only the
// cluster lists it hands to the chain (TestFilterSweepMatchesSearch,
// TestFilterSteadyStateAllocs).
//
// Refinement (Algorithm 3): for every candidate, run CMC restricted to the
// candidate's support objects over the candidate's partition-aligned time
// window, then canonicalize the union of all discovered convoys.

// Variant names the member of the CuTS family.
type Variant int

const (
	// VariantCuTS uses DP simplification and the Lemma 1 (DLL) bound.
	VariantCuTS Variant = iota
	// VariantCuTSPlus uses DP+ simplification and the Lemma 1 (DLL) bound.
	VariantCuTSPlus
	// VariantCuTSStar uses DP* simplification and the Lemma 3 (D*) bound.
	VariantCuTSStar
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantCuTS:
		return "CuTS"
	case VariantCuTSPlus:
		return "CuTS+"
	case VariantCuTSStar:
		return "CuTS*"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// SimplifyMethod returns the trajectory-simplification algorithm the
// variant uses (the table at the end of Section 6).
func (v Variant) SimplifyMethod() simplify.Method {
	switch v {
	case VariantCuTSPlus:
		return simplify.DPPlus
	case VariantCuTSStar:
		return simplify.DPStar
	default:
		return simplify.DP
	}
}

// Bound returns the filter distance bound the variant uses.
func (v Variant) Bound() dbscan.BoundKind {
	if v == VariantCuTSStar {
		return dbscan.BoundDStar
	}
	return dbscan.BoundDLL
}

// FilterConfig bundles the resolved filter-step inputs.
type FilterConfig struct {
	Lambda             int64
	Bound              dbscan.BoundKind
	Tolerance          dbscan.ToleranceMode
	Delta              float64
	NoBoxPrune         bool
	NoClipTime         bool
	NoCandidatePruning bool
	// Workers clusters contiguous runs of λ-partitions concurrently (each
	// partition's TRAJ-DBSCAN is independent; candidate chaining stays
	// sequential in partition order, so the candidate set is identical to a
	// serial run). 0 or 1 runs serially.
	Workers int
}

// Candidate is one convoy candidate produced by the filter step.
type Candidate struct {
	// Objects is the candidate's identity: the intersection of the
	// partition clusters it chained through (ascending IDs).
	Objects []model.ObjectID
	// Support is the union of those clusters — the object set the
	// refinement step clusters (ascending IDs).
	Support []model.ObjectID
	// Start and End delimit the candidate's partition-aligned tick window.
	Start, End model.Tick
}

// Window returns the candidate's window length in ticks.
func (c Candidate) Window() int64 { return int64(c.End-c.Start) + 1 }

// RefinementUnits returns the candidate's contribution to the paper's
// refinement-unit metric (Section 7.3): the quadratic clustering cost of
// the objects the refinement must process, times the candidate's lifetime.
func (c Candidate) RefinementUnits() float64 {
	n := float64(len(c.Support))
	return n * n * float64(c.Window())
}

// Stats reports what a CuTS run did, for the experiment harness.
type Stats struct {
	Variant       Variant
	Delta         float64       // the δ actually used
	Lambda        int64         // the λ actually used
	Workers       int           // effective worker count (1 = serial)
	NumPartitions int           // partitions scanned
	NumCandidates int           // candidates handed to refinement
	RefineUnits   float64       // Σ candidate refinement units
	VertexKept    int           // Σ |o'| over all simplified trajectories
	VertexTotal   int           // Σ |o| over all original trajectories
	SimplifyTime  time.Duration // phase timings (Figure 13); simplify includes choosing δ
	FilterTime    time.Duration
	RefineTime    time.Duration
	// ClusterPasses counts clustering passes actually run: snapshot DBSCAN
	// passes (CMC scans and refinement windows) plus filter λ-partition
	// TRAJ-DBSCAN passes. It is the work meter behind the cancellation and
	// early-stop guarantees — an aborted or limit-stopped run shows
	// strictly fewer passes than a full one. Filled even when a run is
	// cancelled mid-way.
	ClusterPasses int64
	// ClusterPassesFull and ClusterPassesIncremental split ClusterPasses
	// by how the pass was answered: a from-scratch clustering run versus
	// the incremental engine patching the previous tick's structure
	// (snapshot passes only: CMC scans and refinement windows — CuTS filter
	// partitions always count as full). ObjectsReclustered sums, over the
	// snapshot passes, the objects whose neighborhoods were actually
	// recomputed; on a low-churn feed it is far below ClusterPasses ×
	// population, which is exactly the work the incremental path saves.
	ClusterPassesFull        int64
	ClusterPassesIncremental int64
	ObjectsReclustered       int64
}

// TotalTime returns the end-to-end discovery time.
func (s Stats) TotalTime() time.Duration { return s.SimplifyTime + s.FilterTime + s.RefineTime }

// VertexReduction returns the overall reduction ratio 1 − Σ|o'|/Σ|o|.
func (s Stats) VertexReduction() float64 {
	if s.VertexTotal == 0 {
		return 0
	}
	return 1 - float64(s.VertexKept)/float64(s.VertexTotal)
}

// Filter runs the CuTS filter step over already-simplified trajectories and
// returns the candidate set. Exposed separately so the experiment harness
// can time and instrument the phases; most callers use Query.
func Filter(db *model.DB, p Params, sts []*simplify.Trajectory, fc FilterConfig) []Candidate {
	cands, _ := filterScan(context.Background(), db, p, sts, fc, nil)
	return cands
}

// filterScan is Filter with a context and a clustering-pass meter:
// cancelling ctx aborts the partition scan at λ-partition granularity and
// returns ctx.Err() with a nil candidate set; passes, when non-nil, is
// atomically incremented once per partition TRAJ-DBSCAN pass.
//
// The scan is scheduled exactly like the tick scan (cmcScan): the partitions
// are cut into contiguous chunks of scanChunkFor partitions, each swept and
// clustered in order by one worker on its own filterScratch — a cursor over
// the simplified segments, which saves its searches only if it sees
// consecutive windows, and the polyline, clip and adjacency buffers — while
// the cheap candidate chaining folds the partition clusters strictly in time
// order on the calling goroutine. The fold sees what a serial scan would, so
// the candidate set is identical for every worker count.
func filterScan(ctx context.Context, db *model.DB, p Params, sts []*simplify.Trajectory, fc FilterConfig, passes *int64) ([]Candidate, error) {
	lambda := fc.Lambda
	lo, hi, ok := db.TimeRange()
	if !ok {
		return nil, nil
	}
	if lambda < 1 {
		lambda = 1
	}

	var out []Candidate
	collect := func(v *candidate) {
		out = append(out, Candidate{
			Objects: v.objs,
			Support: v.support,
			Start:   v.start,
			End:     v.end,
		})
	}

	// Partition windows, in time order. Windows are addressed by index,
	// never by stepping a tick: w0 += λ wraps when the domain ends near
	// model.MaxTick.
	nWins := lambdaPartitions(lo, hi, lambda)
	windowAt := func(i int) (w0, w1 model.Tick) {
		w0 = lo + model.Tick(int64(i)*lambda)
		if int64(hi-w0) < lambda {
			return w0, hi
		}
		return w0, w0 + model.Tick(lambda) - 1
	}

	tm := newStageTimer(trace.FromContext(ctx))
	defer tm.flush()
	pf := newPartitionFilter(sts, p, fc)
	var live []*candidate
	var next candidateSet
	if err := par.OrderedChunks(ctx, nWins, fc.Workers, scanChunkFor(int64(nWins), fc.Workers),
		pf.scratch,
		func(s *filterScratch, i int) [][]model.ObjectID {
			if passes != nil {
				atomic.AddInt64(passes, 1)
			}
			t0 := tm.start()
			clusters := s.clusters(windowAt(i))
			tm.clustered(t0)
			return clusters
		},
		func(i int, clusters [][]model.ObjectID) bool {
			t0 := tm.start()
			w0, w1 := windowAt(i)
			live = chainStep(&next, live, clusters, p.M, p.K, w0, w1, true, nil, collect)
			tm.chained(t0)
			return true
		}); err != nil {
		return nil, err
	}
	flushCandidates(live, p.K, nil, collect)
	return dedupCandidates(out, fc.NoCandidatePruning), nil
}

// partitionFilter is the read-only half of the filter's partition scan, built
// once and shared by every worker: what to cluster and under which bound.
type partitionFilter struct {
	sts   []*simplify.Trajectory
	order []int // indices into sts by ascending (first segment's start, index)
	m     int
	// clip: under the D* bound the segments are clipped to the partition
	// window — the synchronous DP* tolerance licenses that (see
	// simplify.Segment.ClipTime), shrinking both the bounding boxes and the
	// CPA distances; the free-space DLL bound must keep whole segments, which
	// is exactly why the paper calls the CuTS* filter tighter (Section 6.2).
	clip bool
	dist dbscan.PolylineDistanceParams
}

func newPartitionFilter(sts []*simplify.Trajectory, p Params, fc FilterConfig) *partitionFilter {
	pf := &partitionFilter{
		sts:   sts,
		order: make([]int, 0, len(sts)),
		m:     p.M,
		clip:  fc.Bound == dbscan.BoundDStar && !fc.NoClipTime,
		dist: dbscan.PolylineDistanceParams{
			Eps:         p.Eps,
			Bound:       fc.Bound,
			Tolerance:   fc.Tolerance,
			GlobalDelta: fc.Delta,
			NoBoxPrune:  fc.NoBoxPrune,
		},
	}
	for i, st := range sts {
		if len(st.Segments) > 0 {
			pf.order = append(pf.order, i)
		}
	}
	slices.SortStableFunc(pf.order, func(a, b int) int {
		return cmp.Compare(sts[a].Segments[0].StartTick(), sts[b].Segments[0].StartTick())
	})
	return pf
}

// filterScratch is what one worker carries through a contiguous run of
// λ-partitions: the cursor that sweeps the simplified segments under them and
// every buffer a partition's clustering fills. Both are reset, not rebuilt,
// from one partition to the next, so a partition like the ones before it
// allocates only the cluster lists it hands on.
type filterScratch struct {
	pf    *partitionFilter
	cur   segCursor
	polys []dbscan.Polyline
	clips []simplify.Segment
	pc    dbscan.PolylineClusterer
}

func (pf *partitionFilter) scratch() *filterScratch {
	return &filterScratch{pf: pf, cur: segCursor{sts: pf.sts, order: pf.order}}
}

// clusters assembles the sub-polylines of partition [w0, w1] (the structure
// G of Algorithm 2) — for each object, the run of simplified segments whose
// time intervals intersect the window — and clusters them. Windows must come
// in ascending order. The cluster lists are the caller's: ascending object
// IDs carved from one fresh arena (they travel on to the candidate chain,
// long after the scratch has moved on).
func (s *filterScratch) clusters(w0, w1 model.Tick) [][]model.ObjectID {
	pf := s.pf
	alive := s.cur.advance(w0, w1)
	if len(alive) < pf.m {
		return nil
	}
	polys, clips := s.polys[:0], s.clips[:0]
	if pf.clip {
		// Sized before any polyline slices into it: the arena must not move.
		total := 0
		for _, a := range alive {
			total += a.hi - a.lo
		}
		clips = slices.Grow(clips, total)
	}
	for _, a := range alive {
		st := pf.sts[a.id]
		segs := st.Segments[a.lo:a.hi]
		if len(segs) == 0 {
			continue
		}
		if pf.clip {
			from := len(clips)
			for _, sg := range segs {
				clips = append(clips, sg.ClipTime(w0, w1))
			}
			segs = clips[from:len(clips):len(clips)]
		}
		polys = append(polys, dbscan.NewPolyline(st.Object, segs))
	}
	s.polys, s.clips = polys, clips
	if len(polys) < pf.m {
		return nil
	}
	// Components come back as polyline indices, ascending; sts — and so
	// polys — is in ascending object order, so mapping in place keeps them
	// sorted (model.ObjectID is an int).
	comps := s.pc.Components(polys, pf.m, pf.dist)
	for _, comp := range comps {
		for i, pi := range comp {
			comp[i] = polys[pi].Object
		}
	}
	return comps
}

// aliveSegs is one trajectory under a segCursor's window: sts[id], and the
// half-open range [lo, hi) of its segments whose intervals intersect it.
type aliveSegs struct{ id, lo, hi int }

// segCursor sweeps a set of simplified trajectories through ascending time
// windows — model.Cursor's idiom applied to simplify.Trajectory.Segments. It
// keeps the trajectories alive in the last window in sts order and, for
// each, the range of segments that intersected it; the next window moves
// every range forward over the segments the step passed, drops the
// trajectories that ended, and merges in the ones that began. That costs
// O(alive), where asking every trajectory with SegmentsOverlapping costs two
// binary searches per trajectory per window; the search is kept for the one
// place it is needed, a trajectory's admission — which is also how a cursor
// that starts mid-domain, or skips windows, finds its place.
type segCursor struct {
	sts   []*simplify.Trajectory
	order []int // indices into sts by ascending first-segment start; shared
	next  int   // the prefix of order already admitted (or found over)
	alive []aliveSegs
}

// advance moves the cursor to window [w0, w1], which must begin after the
// previous one did, and returns the trajectories with a segment in it (one
// whose segments leave a gap around the window stays, with an empty range).
// The slice is the cursor's own: valid, and not to be written, until the
// next call.
func (c *segCursor) advance(w0, w1 model.Tick) []aliveSegs {
	w := 0
	for _, a := range c.alive {
		segs := c.sts[a.id].Segments
		for a.lo < len(segs) && segs[a.lo].EndTick() < w0 {
			a.lo++
		}
		if a.lo == len(segs) {
			continue
		}
		a.hi = max(a.hi, a.lo)
		for a.hi < len(segs) && segs[a.hi].StartTick() <= w1 {
			a.hi++
		}
		c.alive[w] = a
		w++
	}
	c.alive = c.alive[:w]
	for ; c.next < len(c.order); c.next++ {
		id := c.order[c.next]
		st := c.sts[id]
		if st.Segments[0].StartTick() > w1 {
			break
		}
		lo, hi := st.SegmentsOverlapping(w0, w1)
		if lo == hi {
			continue // over before this window: a cursor that began late, or skipped
		}
		// Insert in sts order; arrivals are few against the alive set.
		at := len(c.alive)
		c.alive = append(c.alive, aliveSegs{})
		for at > 0 && c.alive[at-1].id > id {
			c.alive[at] = c.alive[at-1]
			at--
		}
		c.alive[at] = aliveSegs{id, lo, hi}
	}
	return c.alive
}

// lambdaPartitions returns how many λ-length partitions the filter cuts a
// non-empty [lo, hi] into: ⌈span/λ⌉ for λ ≥ 1, computed so that neither a
// domain ending at model.MaxTick nor a huge λ overflows.
func lambdaPartitions(lo, hi model.Tick, lambda int64) int {
	return int((model.TickSpan(lo, hi)-1)/lambda) + 1
}

// dedupCandidates drops candidates whose refinement is covered by another
// candidate's refinement: identical (support, window) duplicates and
// candidates dominated in both dimensions (support subset, window inside).
// Domination arises constantly by construction — when a candidate dies, its
// surviving intersection children inherit its start time and a superset
// support, so refining the child subsumes refining the parent. Pruning them
// is what keeps the refinement step cheap (Section 7.3's refinement units).
func dedupCandidates(cands []Candidate, noPruning bool) []Candidate {
	seen := make(map[string]struct{}, len(cands))
	uniq := cands[:0]
	for _, c := range cands {
		key := fmt.Sprintf("%d|%d|%s", c.Start, c.End, setKey(c.Support))
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		uniq = append(uniq, c)
	}
	if noPruning {
		return uniq
	}
	// Big supports and wide windows first, so the keep-list check hits the
	// likely dominator early.
	sort.Slice(uniq, func(i, j int) bool {
		if len(uniq[i].Support) != len(uniq[j].Support) {
			return len(uniq[i].Support) > len(uniq[j].Support)
		}
		return uniq[i].Window() > uniq[j].Window()
	})
	var keep []Candidate
	for _, c := range uniq {
		dominated := false
		for _, k := range keep {
			if k.Start <= c.Start && c.End <= k.End && subsetSorted(c.Support, k.Support) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, c)
		}
	}
	return keep
}

// Refine runs the refinement step (Algorithm 3): CMC restricted to each
// candidate's support objects and time window, returning the canonical
// union of the discovered convoys.
func Refine(db *model.DB, p Params, cands []Candidate) Result {
	var all []Convoy
	// Cannot fail: nothing cancels a background scan.
	_ = refineScan(context.Background(), db, p, cands, 1, DefaultChurnThreshold, nil, func(_ int, raw []Convoy) bool {
		all = append(all, raw...)
		return true
	})
	return Canonicalize(all)
}

// refineScan runs the refinement step one candidate at a time on a worker
// pool, pushing every candidate's raw window convoys into emit strictly in
// candidate order (an ordered pipeline, like the tick and partition
// scans). emit returning false abandons the remaining candidates;
// cancelling ctx aborts with ctx.Err() at candidate granularity. The
// windows are clustered by the same kind of source as a CMC scan's ticks —
// threshold is the query's WithIncremental value, so ≤ 0 keeps refinement
// on the stateless path too — and meter counts their passes.
func refineScan(ctx context.Context, db *model.DB, p Params, cands []Candidate, workers int, threshold float64, meter *scanMeter, emit func(i int, raw []Convoy) bool) error {
	// The window scans share the refine span's timer — their clustering and
	// chaining time accumulates across candidates — but not ctx: they stay
	// uncancellable mid-window, as documented on cmcWindow.
	tm := newStageTimer(trace.FromContext(ctx))
	defer tm.flush()
	return par.OrderedChunks(ctx, len(cands), workers, 1,
		func() *ClusterSource { return newSource(p.ClusterKey(), DefaultClusterer, threshold, meter) },
		func(src *ClusterSource, i int) []Convoy {
			c := cands[i]
			return cmcWindow(db, p, c.Start, c.End, c.Support, src, tm)
		},
		emit)
}
