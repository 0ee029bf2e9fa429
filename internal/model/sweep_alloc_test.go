//go:build !race

package model

import (
	"math/rand"
	"testing"
)

// TestCursorSteadyStateAllocs pins the sweep's point: once a cursor's
// buffers have grown to the database's peak, a pass over the time domain —
// arrivals, departures, interpolation and the seek back to the start
// included — allocates nothing. (Not under -race, whose instrumentation
// perturbs allocation counts.)
func TestCursorSteadyStateAllocs(t *testing.T) {
	const span = 40
	db := randomSweepDB(t, rand.New(rand.NewSource(7)), 0, span)
	cur := db.Sweep(nil).Cursor()
	sweep := func() {
		for tick := Tick(0); tick < span; tick++ {
			cur.At(tick)
		}
	}
	sweep() // grow the buffers
	if n := testing.AllocsPerRun(10, sweep); n != 0 {
		t.Fatalf("steady-state sweep allocates %v times per pass, want 0", n)
	}
}
