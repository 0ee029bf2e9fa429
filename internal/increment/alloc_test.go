//go:build !race

package increment

import (
	"runtime"
	"testing"

	"repro/internal/model"
)

// TestFullPassSteadyStateAllocs pins the full pass to the lists it hands
// on. Every object moves every tick — across ε-boundaries and grid cells,
// see orbitFrames — so every tick rebuilds; once the engine has seen a lap
// of the stream, a tick that yields clusters allocates twice (the cluster
// list and the one arena its member lists are carved from) and a tick that
// yields none not at all, on either side of allPairsMax. (Not under -race,
// whose instrumentation perturbs allocation counts.)
func TestFullPassSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{12, allPairsMax, allPairsMax + 1, 285} {
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
	}
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
