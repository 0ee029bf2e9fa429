//go:build !race

package core

import (
	"testing"

	"repro/internal/model"
)

// TestChainStepSteadyStateAllocs pins what a Monitor tick costs the
// allocator once its convoys travel together: sixteen groups of four, the
// same cluster list every tick. The bound is what is new in the
// generation, which here is nothing — zero allocations either way the step
// goes.
//
// With a shared border object each of the 16 × 16 candidate × cluster pairs
// has a non-empty intersection — below m for the 240 mismatched ones — and
// the repeated list is not stable, so every tick takes the full step: no
// intersection below m is built, a survivor shares its object list, a
// cluster equal to a live candidate merges into it, and the set, its index
// and the candidate structs are the monitor's own, recycled from the
// generation before (working out that the list is unstable uses scratch
// too). Without the border the list is disjoint, and a repeat is the
// shortcut: no intersection at all. (Not under -race, whose instrumentation
// perturbs allocation counts.)
func TestChainStepSteadyStateAllocs(t *testing.T) {
	const groups, border = 16, 999
	for _, shared := range []bool{true, false} {
		var clusters [][]model.ObjectID
		for g := 0; g < groups; g++ {
			c := ids(10*g, 10*g+1, 10*g+2, 10*g+3)
			if shared {
				c = append(c, border)
			}
			clusters = append(clusters, c)
		}
		mon, err := NewMonitor(Params{M: 3, K: 2, Eps: 1})
		if err != nil {
			t.Fatal(err)
		}
		tick := model.Tick(0)
		advance := func() {
			if out, err := mon.AdvanceClusters(tick, clusters); err != nil || len(out) != 0 {
				t.Fatalf("border %v, tick %d: %v, %v", shared, tick, out, err)
			}
			tick++
		}
		advance()
		advance()
		advance() // both generation buffers have grown and a generation has retired
		if n := testing.AllocsPerRun(20, advance); n != 0 {
			t.Fatalf("border %v: a steady tick over %d candidates × %d clusters allocates %v times, want 0", shared, groups, groups, n)
		}
		if mon.Live() != groups {
			t.Fatalf("border %v: %d live candidates, want %d", shared, mon.Live(), groups)
		}
		if got := mon.next.stable == stabilityStable; got == shared {
			t.Fatalf("border %v: the list's stability was worked out as %v", shared, got)
		}
	}
}
