//go:build !race

package core

import (
	"testing"

	"repro/internal/model"
)

// TestChainStepSteadyStateAllocs pins what a Monitor tick costs the
// allocator once its convoys travel together. Sixteen groups share one
// border object, so each of the 16 × 16 candidate × cluster pairs has a
// non-empty intersection — below m for the 240 mismatched ones — and every
// candidate survives whole in its own cluster. The bound is what is new in
// the generation, which here is nothing — zero allocations: no intersection
// below m is built, a survivor shares its object list, a cluster equal to a
// live candidate merges into it, and the set, its index and the candidate
// structs are the monitor's own, recycled from the generation before. (Not
// under -race, whose instrumentation perturbs allocation counts.)
func TestChainStepSteadyStateAllocs(t *testing.T) {
	const groups, border = 16, 999
	var clusters [][]model.ObjectID
	for g := 0; g < groups; g++ {
		clusters = append(clusters, ids(10*g, 10*g+1, 10*g+2, 10*g+3, border))
	}
	mon, err := NewMonitor(Params{M: 3, K: 2, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	tick := model.Tick(0)
	advance := func() {
		if out, err := mon.AdvanceClusters(tick, clusters); err != nil || len(out) != 0 {
			t.Fatalf("tick %d: %v, %v", tick, out, err)
		}
		tick++
	}
	advance()
	advance()
	advance() // both generation buffers have grown and a generation has retired
	if n := testing.AllocsPerRun(20, advance); n != 0 {
		t.Fatalf("a steady tick over %d candidates × %d clusters allocates %v times, want 0", groups, groups, n)
	}
	if mon.Live() != groups {
		t.Fatalf("%d live candidates, want %d", mon.Live(), groups)
	}
}
