//go:build !race

package wire

import "testing"

// TestDecodeTicksAllocs pins the scanner to what it returns: one string
// copy of the body, the batch slice and the positions slice, with slack for
// a capacity hint that missed — not the ≈ 300 allocations (one per label,
// plus reflection's) encoding/json made of a 285-position tick. (Not under
// -race, whose instrumentation perturbs allocation counts.)
func TestDecodeTicksAllocs(t *testing.T) {
	body, n := commuteTick(t, 0.1)
	if n < 250 {
		t.Fatalf("commute tick has %d positions, want the ladder's ≈ 285", n)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeTicks(body); err != nil {
			t.Fatal(err)
		}
	}); allocs > 8 {
		t.Fatalf("decoding a %d-position tick allocates %v times, want ≤ 8", n, allocs)
	}
}
