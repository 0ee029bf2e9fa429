package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/simplify"
)

// refLargestGapLow is the δ guideline's gap selection as it was: sort the
// profile, then take the lower end of the first largest gap.
func refLargestGapLow(vs []float64) float64 {
	vs = slices.Clone(vs)
	slices.Sort(vs)
	sel := vs[0]
	if len(vs) > 1 {
		bestGap := -1.0
		for j := 1; j < len(vs); j++ {
			if gap := vs[j] - vs[j-1]; gap > bestGap {
				bestGap = gap
				sel = vs[j-1]
			}
		}
	}
	return sel
}

// refComputeDelta is ComputeDelta on refLargestGapLow.
func refComputeDelta(db *model.DB, e float64) float64 {
	n := db.Len()
	if n == 0 {
		return e / 2
	}
	stride := n / max(1, n/deltaSampleDivisor)
	var sum float64
	var count int
	for i := 0; i < n; i += stride {
		dists := simplify.AppendSplitDistances(nil, db.Traj(i), simplify.DP, e)
		if len(dists) == 0 {
			continue
		}
		sum += refLargestGapLow(dists)
		count++
	}
	if count == 0 || sum == 0 {
		return e / 2
	}
	return sum / float64(count)
}

// TestLargestGapLowMatchesSort holds the bucketed selection to the sorting
// one, bit for bit: random and duplicate-heavy profiles, equal values, one
// and two values, spreads from subnormal to e, up to 2·10⁵ values, and the
// spreads with no finite bucket scale that fall back to the sort.
func TestLargestGapLowMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	var sc deltaScratch
	check := func(name string, vs []float64) {
		t.Helper()
		want := refLargestGapLow(vs)
		sc.dists = append(sc.dists[:0], vs...)
		if got := sc.largestGapLow(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (%d values): %v, sorted selection %v", name, len(vs), got, want)
		}
	}
	check("one", []float64{3})
	check("two", []float64{5, 2})
	check("equal", []float64{7, 7, 7, 7})
	check("zeros", []float64{0, 0})
	check("evenly spaced", []float64{4, 0, 3, 1, 2})
	check("two equal gaps", []float64{0, 1, 1.5, 2.5})
	check("subnormal", []float64{5e-324, 1e-323, 0, 2.5e-323})
	check("no finite scale", []float64{1e-310, 2e-310, 1.5e-310})
	check("infinite", []float64{1, math.Inf(1), 3})
	check("NaN", []float64{1, math.NaN(), 3, 0.5})
	for _, n := range []int{2, 3, 5, 17, 100, 1000, 26000, 200000} {
		for _, spread := range []float64{1e-320, 1e-300, 1e-12, 1, 300} {
			vs := make([]float64, n)
			for i := range vs {
				vs[i] = r.Float64() * spread
			}
			check("random", vs)
			for i := range vs { // few distinct values, many repeats
				vs[i] = float64(r.Intn(1+n/20)) * spread / float64(1+n/20)
			}
			check("duplicates", vs)
			for i := range vs { // heavy-tailed: most values crowd the bottom
				vs[i] = math.Pow(r.Float64(), 8) * spread
			}
			check("skewed", vs)
			for i := range vs { // an evenly spaced grid, shuffled: every gap ties
				vs[i] = float64(i) * (spread / float64(n))
			}
			r.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
			check("grid", vs)
		}
	}
}

// TestComputeDeltaMatchesSort holds ComputeDelta to the sort-based
// selection bit for bit on the paper profiles at three scales and on the
// ladder's four cattle-cuts herds.
func TestComputeDeltaMatchesSort(t *testing.T) {
	scales := []float64{0.05, 0.3, 1}
	if testing.Short() {
		scales = scales[:2]
	}
	var profiles []datagen.Profile
	for _, scale := range scales {
		profiles = append(profiles, datagen.AllProfiles(scale, 1)...)
	}
	for i := int64(0); i < 4; i++ {
		p := datagen.Cattle(0.15, 101)
		p.Scenario.Seed = 101 + 1000*i
		profiles = append(profiles, p)
	}
	for _, p := range profiles {
		db := p.Generate()
		got, want := ComputeDelta(db, p.Eps), refComputeDelta(db, p.Eps)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (%d trajectories): δ = %v, sort-based %v", p.Name, db.Len(), got, want)
		}
	}
}
