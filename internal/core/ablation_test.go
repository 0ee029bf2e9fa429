package core

import (
	"math/rand"
	"testing"
)

// Candidate pruning must only ever shrink the candidate set, and the kept
// candidates must cover the dropped ones.
func TestCandidatePruningCoversDropped(t *testing.T) {
	r := rand.New(rand.NewSource(513))
	for iter := 0; iter < 10; iter++ {
		db := randomDB(r, 4+r.Intn(4), 12+r.Intn(8))
		p := Params{M: 2, K: int64(2 + r.Intn(3)), Eps: 1 + r.Float64()*2}
		base := []Option{WithVariant(VariantCuTS), WithDelta(0.5), WithLambda(2)}

		_, stPruned, err := runQuery(db, p, base...)
		if err != nil {
			t.Fatal(err)
		}
		_, stRaw, err := runQuery(db, p, append(base, WithAblation(false, false, true))...)
		if err != nil {
			t.Fatal(err)
		}
		if stPruned.NumCandidates > stRaw.NumCandidates {
			t.Fatalf("pruning grew candidates: %d > %d", stPruned.NumCandidates, stRaw.NumCandidates)
		}
		if stPruned.RefineUnits > stRaw.RefineUnits {
			t.Fatalf("pruning grew refinement units: %g > %g", stPruned.RefineUnits, stRaw.RefineUnits)
		}
	}
}
