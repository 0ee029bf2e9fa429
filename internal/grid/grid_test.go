package grid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
)

func TestPointIndexSmall(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0.5, 0.5), geom.Pt(10, 10), geom.Pt(-3, 0),
	}
	idx := NewPointIndex(pts, 1.0)
	if idx.n != 5 {
		t.Fatalf("Len = %d", idx.n)
	}
	got := idx.Within(geom.Pt(0, 0), 1.0, nil)
	sort.Ints(got)
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Within = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Within = %v, want %v", got, want)
		}
	}
	if got := idx.Within(geom.Pt(100, 100), 5, nil); len(got) != 0 {
		t.Errorf("far query returned %v", got)
	}
}

func TestPointIndexBoundaryInclusive(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 4)}
	idx := NewPointIndex(pts, 2.5)
	got := idx.Within(geom.Pt(0, 0), 5, nil) // distance exactly 5
	if len(got) != 2 {
		t.Errorf("boundary distance should be inclusive, got %v", got)
	}
	got = idx.Within(geom.Pt(0, 0), 4.999, nil)
	if len(got) != 1 {
		t.Errorf("just-under distance should exclude, got %v", got)
	}
}

func TestPointIndexNegativeCoords(t *testing.T) {
	pts := []geom.Point{geom.Pt(-0.5, -0.5), geom.Pt(-1.5, -1.5), geom.Pt(0.5, 0.5)}
	idx := NewPointIndex(pts, 1.0)
	got := idx.Within(geom.Pt(-1, -1), 1.0, nil)
	sort.Ints(got)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("negative-coordinate query = %v", got)
	}
}

func TestPointIndexMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for iter := 0; iter < 50; iter++ {
		n := 1 + r.Intn(300)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(r.Float64()*100-50, r.Float64()*100-50)
		}
		cell := 0.5 + r.Float64()*10
		idx := NewPointIndex(pts, cell)
		for q := 0; q < 10; q++ {
			p := geom.Pt(r.Float64()*120-60, r.Float64()*120-60)
			radius := r.Float64() * 15
			got := idx.Within(p, radius, nil)
			sort.Ints(got)
			var want []int
			for i, pt := range pts {
				if geom.D(p, pt) <= radius {
					want = append(want, i)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("Within mismatch: got %d, want %d (cell=%g r=%g)", len(got), len(want), cell, radius)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Within mismatch at %d: %v vs %v", i, got, want)
				}
			}
		}
	}
}

func TestNewIndexPanicsOnBadCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive cell size")
		}
	}()
	NewPointIndex(nil, 0)
}

// Regression: a single NaN (or Inf) coordinate used to drive the grid
// extent non-finite and panic the cell allocation with "makeslice: len out
// of range". The index now clamps such a point into a border cell; queries
// stay correct for the finite geometry and non-finite entries simply never
// match.
func TestPointIndexNonFiniteDefensive(t *testing.T) {
	nan := math.NaN()
	for _, poison := range []geom.Point{
		geom.Pt(nan, 0), geom.Pt(0, nan), geom.Pt(math.Inf(1), 0), geom.Pt(0, math.Inf(-1)),
	} {
		pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0), poison, geom.Pt(10, 10)}
		idx := NewPointIndex(pts, 1.0) // must not panic
		got := idx.Within(geom.Pt(0, 0), 1, nil)
		sort.Ints(got)
		if len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Errorf("poison %v: Within = %v, want [0 1]", poison, got)
		}
		// Querying at the poison point must not panic either.
		if hits := idx.Within(poison, 1, nil); len(hits) != 0 {
			t.Errorf("poison %v: query at poison = %v", poison, hits)
		}
	}
}

// A NaN or ±Inf coordinate used to drive the dense grid's extent
// non-finite (and a bogus cell count could panic the allocation), so the
// grid fell back to one cell. The hashed grid clamps such a point into a
// border cell instead. Wherever the poison sits and whichever coordinate it
// is in, the poisoned point must never match, and every finite query must
// answer exactly what it answers without the poison — on a fresh index and
// on one reused across poisoned and clean sets.
func TestPointIndexNonFiniteFallsBackToOneCell(t *testing.T) {
	nan := math.NaN()
	clean := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(3, 7), geom.Pt(10, 10)}
	queries := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 6.5), geom.Pt(10, 9), geom.Pt(-1e300, 5)}
	check := func(what string, idx *PointIndex, pts []geom.Point) {
		t.Helper()
		for _, q := range queries {
			for _, r := range []float64{0, 1, 8, 20} {
				got := sorted(idx.Within(q, r, nil))
				var want []int
				for i, p := range pts {
					if geom.D2(q, p) <= r*r {
						want = append(want, i)
					}
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s: Within(%v, %g) = %v, want %v", what, q, r, got, want)
				}
			}
		}
	}
	reused := NewPointIndex(clean, 1.0)
	for _, poison := range []geom.Point{
		geom.Pt(nan, 0), geom.Pt(0, nan), geom.Pt(nan, nan),
		geom.Pt(math.Inf(1), 0), geom.Pt(math.Inf(-1), 0), geom.Pt(0, math.Inf(1)), geom.Pt(0, math.Inf(-1)),
	} {
		for at := range clean {
			pts := slices.Clone(clean)
			pts[at] = poison
			fresh := NewPointIndex(pts, 1.0)
			reused.Reset(pts)
			for _, idx := range []*PointIndex{fresh, reused} {
				what := fmt.Sprintf("poison %v at %d", poison, at)
				check(what, idx, pts) // the brute force skips the poison on its own
				for _, r := range []float64{0, 1, 1e300} {
					for _, hit := range idx.Within(poison, r, nil) {
						if hit == at {
							t.Errorf("%s: a query at the poison, r=%g, matched it", what, r)
						}
					}
				}
				if got := sorted(idx.Within(geom.Pt(0, 0), 100, nil)); slices.Contains(got, at) {
					t.Errorf("%s: the poisoned point matched a finite query: %v", what, got)
				}
			}
			reused.Reset(clean)
			check(fmt.Sprintf("clean points after poison %v", poison), reused, clean)
		}
	}
}

func sorted(s []int) []int {
	slices.Sort(s)
	return s
}

// Regression: huge-but-finite extents used to wrap nx*ny around the int
// range — 2^33 × 2^31 cells is exactly 2^64 ≡ 0, which passed the old cap
// check, allocated a zero-length cell slice, and panicked the insertion
// loop. The cap is now checked by division.
func TestPointIndexHugeFiniteExtent(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(8589934591, 2147483647)}
	idx := NewPointIndex(pts, 1.0) // must not panic
	if got := idx.Within(geom.Pt(0, 0), 1, nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("Within = %v, want [0]", got)
	}
	if got := idx.Within(geom.Pt(8589934591, 2147483647), 1, nil); len(got) != 1 || got[0] != 1 {
		t.Errorf("Within far = %v, want [1]", got)
	}
}

// TestPointIndexResetEquivalence pins Reset's contract: after Reset(pts)
// the index answers every query exactly as a freshly constructed index
// would, across point sets of different sizes, extents and degeneracy
// (including the non-finite single-cell fallback and the empty set).
func TestPointIndexResetEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	sets := [][]geom.Point{}
	for _, n := range []int{40, 7, 0, 120, 40} {
		pts := make([]geom.Point, n)
		extent := 10 + r.Float64()*90
		for i := range pts {
			pts[i] = geom.Pt(r.Float64()*extent-extent/2, r.Float64()*extent)
		}
		sets = append(sets, pts)
	}
	sets = append(sets, []geom.Point{geom.Pt(math.NaN(), 0), geom.Pt(1, 1)}) // fallback path
	sets = append(sets, sets[0])                                             // recover from fallback

	reused := NewPointIndex(nil, 2.0)
	for si, pts := range sets {
		reused.Reset(pts)
		fresh := NewPointIndex(pts, 2.0)
		for q := 0; q < 50; q++ {
			p := geom.Pt(r.Float64()*120-60, r.Float64()*120-60)
			rad := r.Float64() * 10
			got := reused.Within(p, rad, nil)
			want := fresh.Within(p, rad, nil)
			if len(got) != len(want) {
				t.Fatalf("set %d: Within(%v, %g) = %v, fresh index says %v", si, p, rad, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("set %d: Within(%v, %g) = %v, fresh index says %v", si, p, rad, got, want)
				}
			}
		}
		if reused.n != fresh.n {
			t.Fatalf("set %d: Len = %d, want %d", si, reused.n, fresh.n)
		}
	}
}

// TestPointIndexResetNoAllocSteadyState pins the reuse promise: repeated
// Resets over same-shaped point sets must settle into zero allocations per
// call (the reason the incremental clustering engine can afford a grid
// rebuild every tick).
func TestPointIndexResetNoAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	pts := make([]geom.Point, 500)
	perturb := func() {
		for i := range pts {
			pts[i] = geom.Pt(r.Float64()*100, r.Float64()*100)
		}
	}
	perturb()
	idx := NewPointIndex(pts, 5.0)
	for i := 0; i < 10; i++ { // warm the buckets across varied layouts
		perturb()
		idx.Reset(pts)
	}
	allocs := testing.AllocsPerRun(20, func() { idx.Reset(pts) })
	if allocs > 0 {
		t.Fatalf("steady-state Reset allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkPointIndexRebuild contrasts the per-tick grid rebuild idioms:
// constructing a fresh index versus Reset on a reused one — over 1 000
// points packed at five per cell, and (the -sparse rows) over 285 points
// spread across Commute's 2 000-unit world at e = 10, where an index sized
// to the extent rather than to the points would pay for 40 000 cells.
func BenchmarkPointIndexRebuild(b *testing.B) {
	for _, fx := range []struct {
		suffix       string
		n            int
		extent, cell float64
	}{{"", 1000, 200, 5}, {"-sparse", 285, 2000, 10}} {
		r := rand.New(rand.NewSource(37))
		pts := make([]geom.Point, fx.n)
		for i := range pts {
			pts[i] = geom.Pt(r.Float64()*fx.extent, r.Float64()*fx.extent)
		}
		b.Run("new"+fx.suffix, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				NewPointIndex(pts, fx.cell)
			}
		})
		b.Run("reset"+fx.suffix, func(b *testing.B) {
			idx := NewPointIndex(pts, fx.cell)
			b.ReportAllocs()
			for b.Loop() {
				idx.Reset(pts)
			}
		})
	}
}
