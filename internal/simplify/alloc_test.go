//go:build !race

package simplify

import (
	"testing"

	"repro/internal/datagen"
)

// TestSimplifySteadyStateAllocs: once a worker's pooled scratch has grown,
// Simplify allocates its result only — the trajectory, Keep and Segments —
// under every method. (Not under -race, whose instrumentation perturbs
// allocation counts.)
func TestSimplifySteadyStateAllocs(t *testing.T) {
	p := datagen.Cattle(0.15, 101)
	tr := p.Generate().Traj(0)
	for _, m := range []Method{DP, DPPlus, DPStar} {
		Simplify(tr, p.Delta, m)
		if n := testing.AllocsPerRun(10, func() { Simplify(tr, p.Delta, m) }); n != 3 {
			t.Errorf("%v: Simplify allocates %v times per call, want 3", m, n)
		}
	}
}
