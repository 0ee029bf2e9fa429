//go:build !race

package tsio

import (
	"bytes"
	"testing"

	"repro/internal/datagen"
)

// TestDecodeBinaryAllocs pins the decoder to what the database keeps: per
// trajectory its label, its samples and the trajectory itself — at most
// four allocations with the amortised growth of the database's own slice
// and label map, plus a constant. The reader it replaced made two more per
// sample (260 591 for Truck's 276 trajectories). (Not under -race, whose
// instrumentation perturbs allocation counts.)
func TestDecodeBinaryAllocs(t *testing.T) {
	db := datagen.Truck(1, 1).Generate()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, db); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	n := testing.AllocsPerRun(5, func() {
		if _, err := DecodeBinary(data); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(4*db.Len() + 16); n > limit {
		t.Fatalf("decoding %d trajectories allocates %v times, want ≤ %v", db.Len(), n, limit)
	}
}
