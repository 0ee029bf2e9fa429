package core

import (
	"math/rand"
	"testing"
)

// Every algorithm is a pure function of its inputs: repeated runs produce
// identical answers and identical filter statistics (timings aside). This
// pins the determinism the experiment harness and the cross-algorithm
// equality tests rely on.
func TestPropRunsAreDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	for iter := 0; iter < 10; iter++ {
		db := randomDB(r, 4+r.Intn(4), 10+r.Intn(10))
		p := Params{M: 2, K: int64(2 + r.Intn(3)), Eps: 1 + r.Float64()*2}

		ref, err := runCMC(db, p)
		if err != nil {
			t.Fatal(err)
		}
		again, err := runCMC(db, p)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Equal(again) {
			t.Fatal("CMC not deterministic")
		}

		for _, variant := range []Variant{VariantCuTS, VariantCuTSStar} {
			opts := []Option{WithVariant(variant), WithDelta(0.7), WithLambda(3)}
			res1, st1, err := runQuery(db, p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			res2, st2, err := runQuery(db, p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !res1.Equal(res2) {
				t.Fatalf("%v results not deterministic", variant)
			}
			if st1.NumCandidates != st2.NumCandidates ||
				st1.RefineUnits != st2.RefineUnits ||
				st1.VertexKept != st2.VertexKept ||
				st1.Lambda != st2.Lambda ||
				st1.Delta != st2.Delta {
				t.Fatalf("%v stats not deterministic: %+v vs %+v", variant, st1, st2)
			}
		}
	}
}
