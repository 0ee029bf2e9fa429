package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/model"
	"repro/internal/par"
)

// CMC — the Coherent Moving Cluster algorithm (Section 4, Algorithm 1).
//
// At every tick the objects alive at that tick are clustered with DBSCAN
// (missing samples are interpolated into virtual points, Section 4), and
// convoy candidates are carried across consecutive ticks by intersecting
// them with the snapshot clusters. A candidate dies when no snapshot
// cluster fully contains its object set; if it lived at least k ticks it is
// reported.
//
// Two bookkeeping refinements close gaps in the printed pseudocode so that
// the output is exactly the answer set documented in the package comment
// (convoy.go; TestGrowingConvoyTracked pins the first):
//
//   - every snapshot cluster also opens a fresh candidate (otherwise a
//     larger group forming around an existing convoy is never tracked), and
//   - candidates still alive when the time domain ends are flushed.
//
// Candidates with identical object sets are merged, keeping the earliest
// start time; reported convoys are finally canonicalized (deduplicated and
// reduced to maximal answers).

// candidate tracks one potential convoy during the scan.
type candidate struct {
	objs       []model.ObjectID // ascending; the identity set
	support    []model.ObjectID // ascending; union of contributing clusters
	start, end model.Tick
}

func (c *candidate) lifetime() int64 { return int64(c.end-c.start) + 1 }

// candidateSet builds one generation of candidates with object-set
// deduplication (keeping the earliest start and unioned support). Whoever
// advances a chain — a Monitor, the CuTS filter — owns one and hands it to
// every chainStep, so at steady state a step allocates only the candidates
// that are new. The zero value is ready to use.
type candidateSet struct {
	// index maps a hash of the object set to the candidate's position in
	// cands; unequal sets whose hashes collide probe on at hash+1.
	index map[uint64]int
	cands []*candidate
	free  []*candidate                  // the generations chainStep retired, for reuse
	inter []model.ObjectID              // chainStep's scratch: the intersection being sized up
	hash  func([]model.ObjectID) uint64 // nil means hashIDs; the collision test overrides it

	// last is the cluster list of the last step (nil after a step with no
	// cluster); cluster lists are immutable, so keeping it costs nothing.
	// stable caches whether last is pairwise disjoint with every cluster at
	// least m objects — worked out once per distinct list, the first time
	// the list repeats.
	last   [][]model.ObjectID
	stable stability
	// fullSteps turns the repeat shortcut off; only the differential test
	// sets it.
	fullSteps bool
}

// stability is candidateSet.stable: not yet worked out, or the answer.
type stability int8

const (
	stabilityUnknown stability = iota
	stabilityStable
	stabilityUnstable
)

func (s *candidateSet) add(objs, support []model.ObjectID, start, end model.Tick) {
	h := hashIDs(objs)
	if s.hash != nil {
		h = s.hash(objs)
	}
	for ; ; h++ {
		i, ok := s.index[h]
		if !ok {
			break
		}
		if ex := s.cands[i]; equalSorted(ex.objs, objs) {
			if start < ex.start {
				ex.start = start
			}
			if !equalSorted(support, ex.support) {
				ex.support = unionSorted(ex.support, support)
			}
			return
		}
	}
	s.index[h] = len(s.cands)
	var c *candidate
	if n := len(s.free); n > 0 {
		c, s.free = s.free[n-1], s.free[:n-1]
	} else {
		c = new(candidate)
	}
	*c = candidate{objs: objs, support: support, start: start, end: end}
	s.cands = append(s.cands, c)
}

// chainStep advances the candidate generation by one clustering round:
// intersect every live candidate with every cluster, report candidates that
// die with sufficient lifetime, and open fresh candidates for the clusters.
// endTick is the tick (or partition end) the new generation extends to;
// freshStart is the start assigned to brand-new candidates, later than the
// start of every live candidate (steps ascend). The new generation is built
// in next and returned; live's slice becomes next's buffer for the step
// after, so the caller must let go of it. next keeps clusters (the lists
// are immutable; fresh candidates alias them anyway).
//
// A step whose clusters value-equal the last step's, when that list is
// stable — pairwise disjoint, every cluster at least m objects — is decided
// without intersecting anything: live was built from that very list, so
// every live candidate v lies inside exactly one cluster c (whole, as a
// fresh cluster, or as an intersection of at least m objects). Then v ∩ c =
// v keeps at least m objects and v ∩ c′ = ∅ for every other cluster c′, so
// v survives into its own entry, in live order, and nothing dies; v's
// support already contains c (it was unioned in when v was last built);
// and each fresh cluster dedupes into the live entry equal to it, whose
// start is earlier than freshStart. The full step would return the same
// generation in the same order, each candidate's end moved to endTick, and
// report nothing — so that is what the shortcut does, without the index or
// a single allocation. A step with no cluster (a tick gap, an empty tick)
// forgets the last list.
func chainStep(
	next *candidateSet,
	live []*candidate,
	clusters [][]model.ObjectID,
	m int, k int64,
	freshStart, endTick model.Tick,
	trackSupport bool,
	out *[]Convoy,
	emit func(*candidate),
) []*candidate {
	if next.repeats(clusters, m) {
		for _, v := range live {
			v.end = endTick
		}
		return live
	}
	if next.index == nil {
		next.index = make(map[uint64]int)
	}
	clear(next.index)
	for _, v := range live {
		survived := false
		for _, c := range clusters {
			// Sized up in scratch before anything is kept: most pairs
			// share fewer than m objects, and a candidate that survives
			// whole keeps its own (immutable) list.
			next.inter = appendCommon(next.inter[:0], v.objs, c)
			if len(next.inter) < m {
				continue
			}
			inter := v.objs
			if len(next.inter) == len(v.objs) {
				survived = true
			} else {
				inter = slices.Clone(next.inter)
			}
			var support []model.ObjectID
			if trackSupport {
				support = unionSorted(v.support, c)
			}
			next.add(inter, support, v.start, endTick)
		}
		if !survived && v.lifetime() >= k {
			if out != nil {
				*out = append(*out, Convoy{Objects: v.objs, Start: v.start, End: v.end})
			}
			if emit != nil {
				emit(v)
			}
		}
	}
	for _, c := range clusters {
		var support []model.ObjectID
		if trackSupport {
			support = c
		}
		next.add(c, support, freshStart, endTick)
	}
	// Nothing refers to the old generation any more (reports and emit copy
	// what they keep): its structs and its slice serve the steps to come.
	gen := next.cands
	next.free = append(next.free, live...)
	next.cands = live[:0]
	return gen
}

// repeats reports whether clusters value-equal the last step's list and
// that list is stable, and otherwise remembers clusters as the last list.
func (s *candidateSet) repeats(clusters [][]model.ObjectID, m int) bool {
	if len(clusters) == 0 {
		s.last = nil
		return false
	}
	if !sameClusters(clusters, s.last) {
		s.last, s.stable = clusters, stabilityUnknown
		return false
	}
	if s.stable == stabilityUnknown {
		s.stable = stabilityUnstable
		if disjointAtLeast(clusters, m, &s.inter) {
			s.stable = stabilityStable
		}
	}
	return s.stable == stabilityStable && !s.fullSteps
}

// sameClusters reports whether two cluster lists hold the same clusters in
// the same order. A list handed out again (increment.Engine's, on a
// repeated tick) is recognised without reading it: lists are never written.
func sameClusters(a, b [][]model.ObjectID) bool {
	if len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] {
		return true
	}
	return slices.EqualFunc(a, b, slices.Equal[[]model.ObjectID])
}

// disjointAtLeast reports whether every cluster has at least m objects and
// no object is in two clusters, sorting the objects in scratch.
func disjointAtLeast(clusters [][]model.ObjectID, m int, scratch *[]model.ObjectID) bool {
	all := (*scratch)[:0]
	for _, c := range clusters {
		if len(c) < m {
			return false
		}
		all = append(all, c...)
	}
	*scratch = all
	slices.Sort(all)
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			return false
		}
	}
	return true
}

// flushCandidates reports every remaining live candidate with sufficient
// lifetime at the end of the scan.
func flushCandidates(live []*candidate, k int64, out *[]Convoy, emit func(*candidate)) {
	for _, v := range live {
		if v.lifetime() >= k {
			if out != nil {
				*out = append(*out, Convoy{Objects: v.objs, Start: v.start, End: v.end})
			}
			if emit != nil {
				emit(v)
			}
		}
	}
}

// scanState is what one worker carries through a contiguous run of ticks:
// the source that clusters them and the cursor that sweeps the database
// under it. Both exploit tick order — the source diffs against the previous
// snapshot, the cursor steps from it — and neither is shared.
type scanState struct {
	src *ClusterSource
	cur *model.Cursor
}

// cmcScan is the tick-scan kernel: over ticks [lo, hi], optionally
// restricted to the given ascending object subset, it sweeps the database's
// snapshots with a model.Cursor, clusters every one with a ClusterSource
// and chains the clusters through one Monitor — exactly what a feed does
// with pushed ticks — pushing every batch of raw (uncanonicalized) convoys
// that close at one tick, plus the final flush batch, into emit. emit
// returning false abandons the scan (no error); cancelling ctx aborts it
// with ctx.Err() at tick granularity. tm, when non-nil, meters where a
// sampled scan's time goes.
//
// The snapshot a source clusters lives in its cursor's buffers and is
// overwritten by the next tick's, which is why a Clusterer may not keep
// the slices it is handed: the cluster lists that travel on to the monitor
// are built apart from the snapshot and never written again (an engine
// hands a repeated tick's lists out again, and the monitor keeps them).
//
// Parallelism is a scheduling policy around that kernel, not a second
// implementation, and there is one schedule whoever consumes the scan: the
// tick domain is cut into contiguous chunks of min(⌈span/workers⌉,
// scanChunk) ticks, each swept and clustered sequentially by one worker with
// its own state — a source from newSource and a cursor over the one shared
// sweep plan (ticks must reach an incremental engine, and a cursor, in order
// for either to save anything) — while the monitor folds the cluster lists
// strictly in tick order on the calling goroutine — a pipeline, not a
// per-tick barrier. The monitor sees exactly the clusters the serial scan
// would, in exactly the same order, so the emitted convoys are identical for
// every worker count by construction; only the pass counters shift, since a
// source's first tick is always a full pass (and a cursor's first tick a walk
// over every trajectory). A serial scan is a plain loop on one state.
//
// Stopping is bounded in the unit the schedule has. Workers test for the
// stop before every tick, so the call returns within one clustering pass per
// worker of emit declining or ctx ending; the ticks already clustered by then
// are at most consumed + (2·workers + 1)·scanChunk — the ticks folded so far
// plus par.OrderedChunks' window of outstanding chunks — and exactly the
// ticks folded when serial.
func cmcScan(ctx context.Context, db *model.DB, p Params, lo, hi model.Tick, subset []model.ObjectID, workers int, newSource func() *ClusterSource, tm *stageTimer, emit func([]Convoy) bool) error {
	span := model.TickSpan(lo, hi)
	if span > maxScanSpan {
		return fmt.Errorf("core: time domain of %d ticks is too long to scan", span)
	}
	plan := db.Sweep(subset)
	mon := &Monitor{p: p}
	stopped := false
	err := par.OrderedChunks(ctx, int(span), workers, scanChunkFor(span, workers),
		func() scanState { return scanState{src: newSource(), cur: plan.Cursor()} },
		func(s scanState, i int) [][]model.ObjectID {
			t0 := tm.start()
			t := lo + model.Tick(i)
			ids, pts := s.cur.At(t)
			clusters := s.src.Cluster(TickSnapshot{T: t, IDs: ids, Pts: pts})
			tm.clustered(t0)
			return clusters
		},
		func(i int, clusters [][]model.ObjectID) bool {
			t0 := tm.start()
			batch, _ := mon.AdvanceClusters(lo+model.Tick(i), clusters) // cannot fail: ticks ascend
			tm.chained(t0)
			stopped = len(batch) > 0 && !emit(batch)
			return !stopped
		})
	if err != nil || stopped {
		return err
	}
	if batch := mon.Close(); len(batch) > 0 {
		emit(batch)
	}
	return nil
}

// cmcWindow collects the raw convoys of a serial, uncancellable CMC scan
// over [lo, hi] — the refinement step's per-candidate unit of work (the
// streaming/cancellation granularity is the candidate, so the window scan
// itself runs to completion). src clusters the window's ticks; it is the
// refinement worker's, carried from window to window for its warm buffers
// (a source answers for the snapshot it is given whatever it saw before).
func cmcWindow(db *model.DB, p Params, lo, hi model.Tick, subset []model.ObjectID, src *ClusterSource, tm *stageTimer) []Convoy {
	var out []Convoy
	// Cannot fail: nothing cancels a background scan, and a candidate's
	// window lies inside a time domain the filter has already walked.
	_ = cmcScan(context.Background(), db, p, lo, hi, subset, 1, func() *ClusterSource { return src }, tm,
		func(batch []Convoy) bool {
			out = append(out, batch...)
			return true
		})
	return out
}

// scanChunk caps the contiguous tick range one worker clusters on one source
// and one cursor in a parallel scan. A chunk starts cold — a fresh source
// growing its buffers, a full pass, a cursor walk over every trajectory —
// which argues for long chunks; a short domain must still cut into enough
// chunks to keep every worker busy to the end, and a consumer that stops
// early has (2·workers + 1) chunks of work in flight behind it, which argues
// for short ones. 512 is the measured knee on Truck; on a dense low-churn
// stream the cold start still shows (BenchmarkScanChunk; table in CHANGES.md,
// PR 18).
const scanChunk = 512

// scanChunkFor returns the chunk length of a scan over n consecutive indices
// — ticks for the tick scan, λ-partitions for the filter's — on the given
// worker count: min(⌈n/workers⌉, scanChunk).
func scanChunkFor(n int64, workers int) int {
	w := int64(max(workers, 1))
	return int(min((n+w-1)/w, scanChunk))
}

// maxScanSpan bounds the tick count of one scan so the scheduler's index
// arithmetic (span plus a chunk) always fits an int, also on 32-bit
// platforms; no scan that long could finish anyway.
const maxScanSpan = math.MaxInt / 2
