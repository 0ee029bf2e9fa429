package core

import (
	"math"

	"repro/internal/model"
	"repro/internal/simplify"
)

// Parameter-selection guidelines of Section 7.4. Neither parameter affects
// correctness — only the execution-time balance between the filter and
// refinement phases — so both functions favor robustness over precision.

// deltaSampleDivisor controls how many trajectories the δ guideline
// inspects: max(1, N/deltaSampleDivisor), i.e., the paper's "e.g., 10% of N".
const deltaSampleDivisor = 10

// ComputeDelta derives a simplification tolerance δ from the data following
// the Section 7.4 heuristic: run Douglas–Peucker with δ = 0 over a sample
// of trajectories, record the split deviations below e in ascending order,
// find the largest gap between adjacent values and select the smaller
// endpoint of that gap; finally average the per-trajectory
// selections. Falls back to e/2 when the data yields no usable profile
// (e.g., everything collinear).
func ComputeDelta(db *model.DB, e float64) float64 {
	n := db.Len()
	if n == 0 {
		return e / 2
	}
	want := n / deltaSampleDivisor
	if want < 1 {
		want = 1
	}
	stride := n / want
	if stride < 1 {
		stride = 1
	}
	var sum float64
	var count int
	for i := 0; i < n; i += stride {
		dists := simplify.SplitDistances(db.Traj(i), simplify.DP, e)
		if len(dists) == 0 {
			continue
		}
		sel := dists[0]
		if len(dists) > 1 {
			bestGap := -1.0
			for j := 1; j < len(dists); j++ {
				if gap := dists[j] - dists[j-1]; gap > bestGap {
					bestGap = gap
					sel = dists[j-1]
				}
			}
		}
		sum += sel
		count++
	}
	if count == 0 || sum == 0 {
		return e / 2
	}
	return sum / float64(count)
}

// ComputeLambda derives the time-partition length λ from the simplification
// outcome following Section 7.4. The first-order estimate is
//
//	λ1 = (|o'|/|o|) · o.τ
//
// (one partition per surviving vertex on average — for Cattle this yields
// the paper's λ = 36), discounted toward the minimum useful partition
// length 2 by the probability that the object is missing from a random
// partition:
//
//	λ_o = λ1 − (λ1 − 2) · (1 − o.τ/T)
//
// As printed in the paper the discount factor reads o.τ/T, but that
// contradicts Table 3 on all four datasets (it would force λ = 2 for the
// full-span Cattle trajectories and λ ≈ λ1 for the 2%-span Trucks, the
// opposite of the reported 36 and 4); the complemented form reproduces the
// published settings, so we take the printed formula to have swapped the
// factor. Per-object values are averaged and clamped to [1, k] — a
// partition longer than the convoy lifetime cannot sharpen the filter and
// only coarsens candidate windows.
func ComputeLambda(db *model.DB, sts []*simplify.Trajectory, k int64) int64 {
	lo, hi, ok := db.TimeRange()
	if !ok {
		return 1
	}
	T := float64(hi-lo) + 1
	var sum float64
	var count int
	for _, st := range sts {
		orig := st.Orig
		if orig.Len() == 0 {
			continue
		}
		tau := float64(orig.Duration())
		ratio := float64(st.Len()) / float64(orig.Len())
		lam1 := ratio * tau
		if lam1 < 2 {
			lam1 = 2
		}
		lam := lam1 - (lam1-2)*(1-tau/T)
		sum += lam
		count++
	}
	if count == 0 {
		return 1
	}
	lambda := int64(math.Round(sum / float64(count)))
	if lambda < 1 {
		lambda = 1
	}
	if k >= 1 && lambda > k {
		lambda = k
	}
	return lambda
}
