package core

import (
	"math/rand"
	"testing"
)

// The ablation switches (box pruning, CuTS* clipping, dominated-candidate
// pruning) are pure performance levers: flipping any combination of them
// must leave the answer set unchanged. Randomized equivalence test.
func TestPropAblationSwitchesPreserveAnswers(t *testing.T) {
	r := rand.New(rand.NewSource(512))
	for iter := 0; iter < 15; iter++ {
		db := randomDB(r, 4+r.Intn(4), 10+r.Intn(10))
		p := Params{M: 2, K: int64(2 + r.Intn(3)), Eps: 1 + r.Float64()*2}
		want, err := runCMC(db, p)
		if err != nil {
			t.Fatal(err)
		}
		delta := 0.2 + r.Float64()*2
		lambda := int64(1 + r.Intn(5))
		for _, variant := range []Variant{VariantCuTS, VariantCuTSStar} {
			// noBoxPrune, noClipTime, noCandPruning
			for _, off := range [][3]bool{
				{true, false, false},
				{false, true, false},
				{false, false, true},
				{true, true, true},
			} {
				got, _, err := runQuery(db, p, WithVariant(variant), WithDelta(delta), WithLambda(lambda),
					WithAblation(off[0], off[1], off[2]))
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("iter %d %v δ=%g λ=%d ablation %v:\ngot  = %v\nwant = %v",
						iter, variant, delta, lambda, off, got, want)
				}
			}
		}
	}
}

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
