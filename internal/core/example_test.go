package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/simplify"
)

// The §7.4 guideline on a cattle herd — few animals, very long 1 Hz
// trajectories, the shape where simplification pays off most: δ comes from
// the Douglas-Peucker split profile, and each simplification method keeps a
// small share of the points at that δ.
func ExampleComputeDelta() {
	prof := datagen.Cattle(0.05, 11)
	db := prof.Generate()
	total := db.Stats().TotalPoints
	delta := core.ComputeDelta(db, prof.Eps)
	fmt.Printf("guideline: δ = %.1f at e = %g\n", delta, prof.Eps)
	for _, m := range []simplify.Method{simplify.DP, simplify.DPPlus, simplify.DPStar} {
		kept := 0
		for _, tr := range db.Trajectories() {
			kept += simplify.Simplify(tr, delta, m).Len()
		}
		fmt.Printf("  %-4v keeps %d of %d points\n", m, kept, total)
	}
	// Output:
	// guideline: δ = 204.6 at e = 300
	//   DP   keeps 419 of 114153 points
	//   DP+  keeps 513 of 114153 points
	//   DP*  keeps 430 of 114153 points
}
