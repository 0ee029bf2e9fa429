// Package simplify implements the three trajectory line-simplification
// methods used by the CuTS family (Sections 2.2, 5.1 and 6):
//
//   - DP:     the classic Douglas–Peucker algorithm — split at the point
//     farthest (in segment distance) from the chord.
//   - DPPlus: the paper's DP+ — among the points whose deviation exceeds
//     the tolerance, split at the one closest to the middle of the range,
//     balancing the divide-and-conquer recursion (Section 6.1).
//   - DPStar: the Meratnia/de By time-ratio variant DP* — deviation of a
//     point is measured against the chord position at the *same time*
//     (synchronous error), enabling the tighter D* filter bound
//     (Section 6.2).
//
// Every produced segment carries its **actual tolerance** δ(l')
// (Definition 4): the maximum deviation of the original trajectory from the
// segment over the segment's time interval. For DP/DP+ the deviation is the
// segment distance DPL; for DP* it is the synchronous time-ratio distance,
// which is what Lemma 3 requires. Actual tolerances are never larger than
// the requested δ and tighten the filter's range-search bounds (Figure 14).
//
// All implementations are iterative (explicit stack) so multi-hundred-
// thousand-point trajectories (the Cattle dataset's shape) cannot overflow
// the goroutine stack.
//
// The cost of the division process is its scan for a split point, and each
// method has one split kernel for it (splitFarthest, splitFarthestSync,
// splitMiddle): the chord's invariants are computed once per range, and the
// two farthest-point methods compare squared deviations and take a single
// exact deviation (one math.Hypot) at the arg-max. What that guarantees is
// stated on farthest: every recorded tolerance is the exact deviation of a
// real sample, and it is the range's maximum to within the rounding the
// deviation itself carries. Simplify and SplitDistances both run on the
// kernels; reference_test.go keeps the per-sample formulation they replaced
// and holds them to it bit for bit.
package simplify

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/par"
)

// Method selects a simplification algorithm.
type Method int

const (
	// DP is the classic Douglas–Peucker farthest-point split.
	DP Method = iota
	// DPPlus splits at the tolerance-exceeding point closest to the middle.
	DPPlus
	// DPStar measures deviation synchronously (time-ratio) à la Meratnia.
	DPStar
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case DP:
		return "DP"
	case DPPlus:
		return "DP+"
	case DPStar:
		return "DP*"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Segment is one line segment l' of a simplified trajectory: a timed segment
// (endpoints are original samples, so they carry timestamps) plus its actual
// tolerance δ(l').
type Segment struct {
	geom.TimedSegment
	// StartIdx and EndIdx are the indices of the segment's endpoints in the
	// original trajectory's sample slice.
	StartIdx, EndIdx int
	// Tolerance is the actual tolerance δ(l') of Definition 4.
	Tolerance float64
}

// StartTick returns the first tick of the segment's time interval l'.τ.
func (sg Segment) StartTick() model.Tick { return model.Tick(sg.T0) }

// EndTick returns the last tick of the segment's time interval l'.τ.
func (sg Segment) EndTick() model.Tick { return model.Tick(sg.T1) }

// ClipTime returns the segment restricted to the time window [lo, hi],
// with endpoints moved to the segment's interpolated positions at the
// clipped instants. The window must intersect the segment's interval.
//
// Clipping preserves the DP* tolerance guarantee — the synchronous error
// D(o(t), l'(t)) ≤ δ(l') holds pointwise, so it holds on any sub-interval —
// and therefore the Lemma 3 (D*) bound stays sound on clipped segments.
// It is NOT sound for DP/DP+ tolerances: their δ(l') bounds the distance to
// the segment as a whole, and the witness point may lie outside the clipped
// span (Section 6.2's motivation for CuTS*).
func (sg Segment) ClipTime(lo, hi model.Tick) Segment {
	t0, t1 := float64(lo), float64(hi)
	if t0 < sg.T0 {
		t0 = sg.T0
	}
	if t1 > sg.T1 {
		t1 = sg.T1
	}
	out := sg
	out.TimedSegment = geom.TimedSeg(sg.PosAt(t0), sg.PosAt(t1), t0, t1)
	return out
}

// Trajectory is a simplified trajectory o': the subsequence of kept samples
// and the segments between them.
type Trajectory struct {
	// Object is the source object's ID.
	Object model.ObjectID
	// Orig points to the original trajectory (used by the refinement step).
	Orig *model.Trajectory
	// Keep holds the indices of the kept samples, ascending, always
	// including the first and last sample.
	Keep []int
	// Segments has len(Keep)−1 entries; a single-sample trajectory gets one
	// degenerate zero-duration segment so that downstream clustering can
	// still reason about the object.
	Segments []Segment
	// Tolerance is δ(o'): the maximum segment tolerance.
	Tolerance float64
	// Method records how the trajectory was simplified.
	Method Method
}

// Len returns |o'|: the number of kept points.
func (st *Trajectory) Len() int { return len(st.Keep) }

// SegmentsOverlapping returns the half-open index range [lo, hi) of segments
// whose time intervals intersect [from, to], by binary search. The filter's
// segment cursor uses it once per trajectory, to find its place, and steps
// from there.
func (st *Trajectory) SegmentsOverlapping(from, to model.Tick) (lo, hi int) {
	lo = sort.Search(len(st.Segments), func(i int) bool {
		return st.Segments[i].EndTick() >= from
	})
	hi = sort.Search(len(st.Segments), func(i int) bool {
		return st.Segments[i].StartTick() > to
	})
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// The split kernels. A range's scan needs of its chord only where it starts
// (ax, ay), how far it reaches (dx, dy) and the denominator of a sample's
// position along it — the chord's squared length under the segment distance
// of DP and DP+, its duration under the synchronous distance of DP*. The
// kernels compute those once per range and keep them in registers; a sample
// then costs a handful of multiplications and one division. Each sample's
// offset from the chord (ex, ey) comes out of the same arithmetic, in the
// same order, as geom.DPL and geom.Point.Lerp would produce it, so its
// length is bit for bit the deviation those would report.

// splitPoint scans the interior of [i, j] and returns
//
//	maxDist — the maximum deviation of any interior sample, and
//	split   — the index to split at (-1 when maxDist ≤ delta, i.e., the
//	          range becomes a final segment).
//
// DP and DP* split at the farthest point; DP+ splits at the point closest to
// the middle among those exceeding delta (Section 6.1).
func splitPoint(samples []model.Sample, i, j int, delta float64, m Method) (maxDist float64, split int) {
	switch m {
	case DPPlus:
		return splitMiddle(samples, i, j, delta)
	case DPStar:
		return splitFarthestSync(samples, i, j, delta)
	default:
		return splitFarthest(samples, i, j, delta)
	}
}

// offSegment returns p minus the point closest to it on the chord from
// (ax, ay) over (dx, dy), of squared length den: the chord's point at
// fraction f ∈ [0, 1] (a chord of no length is its start). Small enough to
// inline, so the kernels' invariants stay in registers.
func offSegment(ax, ay, dx, dy, den float64, p geom.Point) (ex, ey float64) {
	f := 0.0
	if den != 0 {
		f = ((p.X-ax)*dx + (p.Y-ay)*dy) / den
		if f < 0 {
			f = 0
		} else if f > 1 {
			f = 1
		}
	}
	return p.X - (ax + f*dx), p.Y - (ay + f*dy)
}

// splitFarthest is the DP kernel: it ranks the interior samples by their
// squared segment distance to the chord and takes one root, at the arg-max.
func splitFarthest(samples []model.Sample, i, j int, delta float64) (float64, int) {
	ax, ay := samples[i].P.X, samples[i].P.Y
	dx, dy := samples[j].P.X-ax, samples[j].P.Y-ay
	den := dx*dx + dy*dy
	var best, bx, by float64
	at := -1
	for k, s := range samples[i+1 : j] {
		ex, ey := offSegment(ax, ay, dx, dy, den, s.P)
		if d2 := ex*ex + ey*ey; d2 > best {
			best, bx, by, at = d2, ex, ey, i+1+k
		}
	}
	return farthest(best, bx, by, at, delta)
}

// splitFarthestSync is the DP* kernel: splitFarthest under the synchronous
// distance — a sample against the chord's position at the sample's own time.
func splitFarthestSync(samples []model.Sample, i, j int, delta float64) (float64, int) {
	ax, ay, t0 := samples[i].P.X, samples[i].P.Y, samples[i].T
	dx, dy := samples[j].P.X-ax, samples[j].P.Y-ay
	dt := float64(samples[j].T - t0)
	if dt == 0 { // a chord of no duration stands still at its start
		dx, dy, dt = 0, 0, 1
	}
	var best, bx, by float64
	at := -1
	for k, s := range samples[i+1 : j] {
		f := float64(s.T-t0) / dt
		ex, ey := s.P.X-(ax+f*dx), s.P.Y-(ay+f*dy)
		if d2 := ex*ex + ey*ey; d2 > best {
			best, bx, by, at = d2, ex, ey, i+1+k
		}
	}
	return farthest(best, bx, by, at, delta)
}

// farthest turns a squared scan's arg-max — sample at, offset (ex, ey) from
// the chord, squared deviation best — into splitPoint's answer.
//
// What the one root guarantees: the recorded deviation is the exact
// deviation of a real sample, never an estimate, so a tolerance is never
// overstated; and a sample the squares rank below the arg-max can exceed it
// only where the two deviations agree to within the rounding of two products
// and a sum — the tolerance is the range's maximum to within a few units in
// its last place, which is also all geom.DPL itself promises. Dividing at
// either of two such samples is a valid Douglas–Peucker step.
func farthest(best, ex, ey float64, at int, delta float64) (float64, int) {
	if at < 0 {
		return 0, -1
	}
	if math.IsInf(best, 1) {
		// Squares beyond 1e308 cannot rank the samples, so the range may not
		// be closed on their word. Dividing it is always sound.
		return best, at
	}
	d := math.Hypot(ex, ey)
	if d <= delta {
		return d, -1
	}
	return d, at
}

// splitMiddle is the DP+ kernel. Its choice depends on every sample's own
// d > delta, not on a maximum, so it keeps the root per sample and saves the
// chord set-up only.
func splitMiddle(samples []model.Sample, i, j int, delta float64) (maxDist float64, split int) {
	ax, ay := samples[i].P.X, samples[i].P.Y
	dx, dy := samples[j].P.X-ax, samples[j].P.Y-ay
	den := dx*dx + dy*dy
	split = -1
	mid := (i + j) / 2
	bestMidDist := j - i // larger than any |idx−mid| in range
	for k, s := range samples[i+1 : j] {
		d := math.Hypot(offSegment(ax, ay, dx, dy, den, s.P))
		if d > maxDist {
			maxDist = d
		}
		if d > delta {
			md := i + 1 + k - mid
			if md < 0 {
				md = -md
			}
			if md < bestMidDist {
				bestMidDist = md
				split = i + 1 + k
			}
		}
	}
	return maxDist, split
}

// keptSample is a sample the division keeps, with the actual tolerance of
// the segment that ends at it.
type keptSample struct {
	idx int
	tol float64
}

// Simplify reduces tr to a simplified trajectory with tolerance delta using
// the chosen method. delta must be ≥ 0; the output always keeps the first
// and last sample, and each produced segment records its actual tolerance.
func Simplify(tr *model.Trajectory, delta float64, m Method) *Trajectory {
	st := &Trajectory{Object: tr.ID, Orig: tr, Method: m}
	n := tr.Len()
	if n == 1 {
		// Degenerate but representable: a stationary zero-duration segment.
		s := tr.Samples[0]
		st.Keep = []int{0}
		st.Segments = []Segment{{
			TimedSegment: geom.TimedSeg(s.P, s.P, float64(s.T), float64(s.T)),
			StartIdx:     0,
			EndIdx:       0,
		}}
		return st
	}

	samples := tr.Samples
	type frame struct{ i, j int }
	// Process ranges in order so kept indices come out sorted: a stack where
	// we always push the right half first. A range that is not divided is
	// therefore final in segment order, and its tolerance rides with its end.
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{0, n - 1})
	var kept []keptSample
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fr.j <= fr.i+1 {
			kept = append(kept, keptSample{fr.j, 0})
			continue
		}
		maxDist, split := splitPoint(samples, fr.i, fr.j, delta, m)
		if split < 0 {
			kept = append(kept, keptSample{fr.j, maxDist})
			continue
		}
		stack = append(stack, frame{split, fr.j})
		stack = append(stack, frame{fr.i, split})
	}

	st.Keep = make([]int, len(kept)+1)
	st.Segments = make([]Segment, len(kept))
	i := 0
	for s, k := range kept {
		a, b := samples[i], samples[k.idx]
		st.Keep[s+1] = k.idx
		st.Segments[s] = Segment{
			TimedSegment: geom.TimedSeg(a.P, b.P, float64(a.T), float64(b.T)),
			StartIdx:     i,
			EndIdx:       k.idx,
			Tolerance:    k.tol,
		}
		if k.tol > st.Tolerance {
			st.Tolerance = k.tol
		}
		i = k.idx
	}
	return st
}

// SimplifyAll simplifies every trajectory of the database with the same
// tolerance and method, in ID order.
func SimplifyAll(db *model.DB, delta float64, m Method) []*Trajectory {
	out, _ := SimplifyAllWorkers(context.Background(), db, delta, m, 1)
	return out
}

// SimplifyAllWorkers is SimplifyAll on a bounded worker pool: trajectories
// are independent, and each worker writes only its own ID slot, so the
// result is identical (and identically ordered) for every worker count.
// workers ≤ 1 runs serially. Cancelling ctx aborts between trajectories
// and returns ctx.Err() with a nil slice.
func SimplifyAllWorkers(ctx context.Context, db *model.DB, delta float64, m Method, workers int) ([]*Trajectory, error) {
	trajs := db.Trajectories()
	out := make([]*Trajectory, len(trajs))
	if err := par.For(ctx, len(trajs), workers, func(id int) {
		out[id] = Simplify(trajs[id], delta, m)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// SplitDistances runs the division process with δ = 0 and returns the split
// deviations below the given bound (+Inf for all of them), sorted ascending. This is the tolerance profile the δ-selection guideline of
// Section 7.4 inspects for its largest-gap heuristic — it only looks below
// e, so only that part is kept and sorted. Collinear interior points
// terminate ranges early (their deviation is 0), exactly as a δ = 0 run of
// the real algorithm would.
func SplitDistances(tr *model.Trajectory, m Method, below float64) []float64 {
	n := tr.Len()
	if n < 3 {
		return nil
	}
	samples := tr.Samples
	var dists []float64
	type frame struct{ i, j int }
	stack := []frame{{0, n - 1}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fr.j <= fr.i+1 {
			continue
		}
		maxDist, split := splitPoint(samples, fr.i, fr.j, 0, m)
		if split < 0 {
			continue
		}
		if maxDist < below {
			dists = append(dists, maxDist)
		}
		stack = append(stack, frame{split, fr.j})
		stack = append(stack, frame{fr.i, split})
	}
	slices.Sort(dists)
	return dists
}
