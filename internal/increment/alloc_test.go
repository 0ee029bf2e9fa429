//go:build !race

package increment

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// TestFullPassSteadyStateAllocs pins the full pass to the lists it hands
// on. Every object moves every tick — across ε-boundaries and grid cells,
// see orbitFrames — so every tick rebuilds; once the engine has seen a lap
// of the stream, a tick that yields clusters allocates at most twice (the
// cluster list and the one arena its member lists are carved from) and a
// tick that yields none not at all, and a tick whose clusters repeat the
// last tick's allocates nothing (repeatedFullPass), on bit rows of one word
// (12) and of two (100, allPairsMax) and on the grid above allPairsMax. (Not
// under -race, whose instrumentation perturbs allocation counts.)
func TestFullPassSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{12, 100, allPairsMax, allPairsMax + 1, 285} {
		const period = 60
		ids, frames := orbitFrames(n, period, 1)
		e := New(orbitEps, 3, DefaultChurnThreshold)
		for lap := 0; lap < 2; lap++ {
			for _, pts := range frames {
				e.Tick(ids, pts)
			}
		}
		tick, withClusters, without := 0, 0, 0
		for tick < 2*period {
			var out [][]model.ObjectID
			var pass Pass
			// AllocsPerRun(1, f) calls f twice and counts the second call.
			allocs := testing.AllocsPerRun(1, func() {
				out, pass = e.Tick(ids, frames[tick%period])
				tick++
			})
			if !pass.Full {
				t.Fatalf("n=%d tick %d: everyone moved, yet the pass was incremental", n, tick)
			}
			limit := 0.0
			if len(out) > 0 {
				limit = 2
				withClusters++
			} else {
				without++
			}
			if allocs > limit {
				t.Fatalf("n=%d tick %d: a full pass yielding %d clusters allocates %v times, want ≤ %v", n, tick, len(out), allocs, limit)
			}
		}
		if withClusters == 0 || (n == 12 && without == 0) {
			t.Fatalf("n=%d: %d ticks with clusters, %d without: the fixture does not exercise both", n, withClusters, without)
		}
		repeatedFullPass(t, n)
	}
}

// repeatedFullPass pins the engine's list sharing over n objects: two
// frames, the second the first (a frame with clusters) shifted by 2⁻¹⁰ —
// everyone moved, so every tick is a full pass, yet the clusters stay the
// same. Once warm, such a tick allocates nothing and hands out the very
// lists it returned the tick before.
func repeatedFullPass(t *testing.T, n int) {
	t.Helper()
	ids, frames := orbitFrames(n, 60, 1)
	var a []geom.Point
	for _, pts := range frames {
		if len(reference(ids, pts, orbitEps, 3)) > 0 {
			a = pts
			break
		}
	}
	if a == nil {
		t.Fatalf("n=%d: no frame of the orbit has a cluster", n)
	}
	b := make([]geom.Point, n)
	for i, p := range a {
		b[i] = geom.Pt(p.X+1.0/1024, p.Y)
	}
	if !reflect.DeepEqual(reference(ids, a, orbitEps, 3), reference(ids, b, orbitEps, 3)) {
		t.Fatalf("n=%d: the shift changed the clusters; the fixture needs another shift", n)
	}
	frame := [2][]geom.Point{a, b}
	e := New(orbitEps, 3, DefaultChurnThreshold)
	tick := 0
	for ; tick < 4; tick++ {
		e.Tick(ids, frame[tick%2])
	}
	for range 4 {
		var out, prev [][]model.ObjectID
		var pass Pass
		// AllocsPerRun(1, f) calls f twice and counts the second call.
		allocs := testing.AllocsPerRun(1, func() {
			prev = out
			out, pass = e.Tick(ids, frame[tick%2])
			tick++
		})
		if !pass.Full {
			t.Fatalf("n=%d tick %d: everyone moved, yet the pass was incremental", n, tick)
		}
		if allocs != 0 {
			t.Fatalf("n=%d tick %d: a full pass repeating the last tick's %d clusters allocates %v times, want 0", n, tick, len(out), allocs)
		}
		if !sameLists(out, prev) {
			t.Fatalf("n=%d tick %d: the repeated clusters are new lists, not the ones handed out before", n, tick)
		}
	}
}

// sameLists reports whether two non-empty cluster lists are the same
// slices: one backing array for the list and for each member list.
func sameLists(a, b [][]model.ObjectID) bool {
	if len(a) == 0 || len(a) != len(b) || &a[0] != &b[0] {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) || &a[i][0] != &b[i][0] {
			return false
		}
	}
	return true
}

// TestFirstTickAllocsIndependentOfExtent pins the grid to its points: a
// fresh engine's first Tick over 285 objects — a full pass on the grid —
// allocates O(n) bytes whether the objects share a 170-unit square or are
// strewn across a world a million (or a billion) units wide. A grid sized to
// the extent spent up to 24 MiB on that tick.
func TestFirstTickAllocsIndependentOfExtent(t *testing.T) {
	const n = 285
	for _, extent := range []float64{170, 2000, 1e6, 1e9} {
		ids, frames := orbitWorld(n, 1, 1, extent, orbitEps)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e := New(orbitEps, 3, DefaultChurnThreshold)
		if _, pass := e.Tick(ids, frames[0]); !pass.Full {
			t.Fatal("a fresh engine's first tick was not a full pass")
		}
		runtime.ReadMemStats(&after)
		// The tick costs ≈ 190 B per object: slot arrays, neighborhoods, the
		// grid's per-point arrays and the answer.
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 512*n {
			t.Errorf("extent %g: the first tick allocated %d bytes, want ≤ %d (512 per object)", extent, bytes, 512*n)
		}
	}
}
