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
package simplify

import (
	"context"
	"fmt"
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

// SegmentCovering returns the index of a segment whose time interval covers
// tick t, or -1. Boundary ticks belong to the earlier segment.
func (st *Trajectory) SegmentCovering(t model.Tick) int {
	i := sort.Search(len(st.Segments), func(i int) bool {
		return st.Segments[i].EndTick() >= t
	})
	if i < len(st.Segments) && st.Segments[i].StartTick() <= t {
		return i
	}
	return -1
}

// SegmentsOverlapping returns the half-open index range [lo, hi) of segments
// whose time intervals intersect [from, to].
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

// deviation returns the deviation of sample idx from the chord between
// samples i and j under the given method: segment distance for DP/DP+,
// synchronous time-ratio distance for DP*.
func deviation(samples []model.Sample, i, j, idx int, m Method) float64 {
	chord := geom.Seg(samples[i].P, samples[j].P)
	if m != DPStar {
		return geom.DPL(samples[idx].P, chord)
	}
	ti, tj, t := samples[i].T, samples[j].T, samples[idx].T
	var ref geom.Point
	if tj == ti {
		ref = samples[i].P
	} else {
		f := float64(t-ti) / float64(tj-ti)
		ref = samples[i].P.Lerp(samples[j].P, f)
	}
	return geom.D(samples[idx].P, ref)
}

// splitPoint scans the interior of [i, j] and returns
//
//	maxDist — the maximum deviation of any interior sample, and
//	split   — the index to split at (-1 when maxDist ≤ delta, i.e., the
//	          range becomes a final segment).
//
// DP and DP* split at the farthest point; DP+ splits at the point closest to
// the middle among those exceeding delta (Section 6.1).
func splitPoint(samples []model.Sample, i, j int, delta float64, m Method) (maxDist float64, split int) {
	split = -1
	if m == DPPlus {
		mid := (i + j) / 2
		bestMidDist := j - i // larger than any |idx−mid| in range
		for idx := i + 1; idx < j; idx++ {
			d := deviation(samples, i, j, idx, m)
			if d > maxDist {
				maxDist = d
			}
			if d > delta {
				md := idx - mid
				if md < 0 {
					md = -md
				}
				if md < bestMidDist {
					bestMidDist = md
					split = idx
				}
			}
		}
		return maxDist, split
	}
	for idx := i + 1; idx < j; idx++ {
		d := deviation(samples, i, j, idx, m)
		if d > maxDist {
			maxDist = d
			if d > delta {
				split = idx
			}
		}
	}
	if maxDist <= delta {
		split = -1
	}
	return maxDist, split
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
	// we always push the right half first.
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{0, n - 1})
	keep := []int{0}
	segTol := make(map[[2]int]float64)
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fr.j <= fr.i+1 {
			keep = append(keep, fr.j)
			segTol[[2]int{fr.i, fr.j}] = 0
			continue
		}
		maxDist, split := splitPoint(samples, fr.i, fr.j, delta, m)
		if split < 0 {
			keep = append(keep, fr.j)
			segTol[[2]int{fr.i, fr.j}] = maxDist
			continue
		}
		stack = append(stack, frame{split, fr.j})
		stack = append(stack, frame{fr.i, split})
	}

	st.Keep = keep
	st.Segments = make([]Segment, 0, len(keep)-1)
	for s := 0; s+1 < len(keep); s++ {
		i, j := keep[s], keep[s+1]
		tol := segTol[[2]int{i, j}]
		a, b := samples[i], samples[j]
		st.Segments = append(st.Segments, Segment{
			TimedSegment: geom.TimedSeg(a.P, b.P, float64(a.T), float64(b.T)),
			StartIdx:     i,
			EndIdx:       j,
			Tolerance:    tol,
		})
		if tol > st.Tolerance {
			st.Tolerance = tol
		}
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
// deviation recorded at every division step, sorted ascending. This is the
// tolerance profile the δ-selection guideline of Section 7.4 inspects for
// its largest-gap heuristic. Collinear interior points terminate ranges
// early (their deviation is 0), exactly as a δ = 0 run of the real
// algorithm would.
func SplitDistances(tr *model.Trajectory, m Method) []float64 {
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
		dists = append(dists, maxDist)
		stack = append(stack, frame{split, fr.j})
		stack = append(stack, frame{fr.i, split})
	}
	sort.Float64s(dists)
	return dists
}
