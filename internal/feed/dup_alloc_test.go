//go:build !race

package feed

import (
	"math/rand"
	"testing"
)

// TestFirstDuplicateAllocs pins the batch duplicate check to no allocation
// on a batch whose IDs arrive unsorted — where core.FirstDuplicateID falls
// back to a map (≈ 9 KB for 256 positions). (Not under -race, whose
// instrumentation perturbs allocation counts.)
func TestFirstDuplicateAllocs(t *testing.T) {
	f := &Feed{labels: make([]string, 512)}
	ids := rand.New(rand.NewSource(1)).Perm(len(f.labels))[:256]
	f.firstDuplicate(ids) // sizes the stamps to the label table
	if n := testing.AllocsPerRun(20, func() {
		if _, dup := f.firstDuplicate(ids); dup {
			t.Fatal("distinct ids reported as a duplicate")
		}
	}); n != 0 {
		t.Fatalf("checking an unsorted batch of %d ids allocates %v times, want 0", len(ids), n)
	}
}
