//go:build !race

package core

import (
	"testing"

	"repro/internal/datagen"
)

// TestComputeDeltaSteadyStateAllocs: once the pooled profile and buckets
// have grown, the δ guideline allocates nothing. (Not under -race, whose
// instrumentation perturbs allocation counts.)
func TestComputeDeltaSteadyStateAllocs(t *testing.T) {
	db := datagen.Cattle(0.15, 101).Generate()
	ComputeDelta(db, cattleParams.Eps)
	if n := testing.AllocsPerRun(10, func() { ComputeDelta(db, cattleParams.Eps) }); n != 0 {
		t.Errorf("ComputeDelta allocates %v times per call, want 0", n)
	}
}
