package core

import (
	"math/rand"
	"testing"

	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/simplify"
)

func TestVariantAccessors(t *testing.T) {
	if VariantCuTS.String() != "CuTS" || VariantCuTSPlus.String() != "CuTS+" || VariantCuTSStar.String() != "CuTS*" {
		t.Error("variant names wrong")
	}
	if VariantCuTS.SimplifyMethod() != simplify.DP ||
		VariantCuTSPlus.SimplifyMethod() != simplify.DPPlus ||
		VariantCuTSStar.SimplifyMethod() != simplify.DPStar {
		t.Error("variant simplification methods wrong")
	}
	if VariantCuTS.Bound() != dbscan.BoundDLL || VariantCuTSStar.Bound() != dbscan.BoundDStar {
		t.Error("variant bounds wrong")
	}
}

func TestCuTSFigure4Example(t *testing.T) {
	db := buildDB(t, 1,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(0, 5), geom.Pt(0, 10), geom.Pt(0, 15)},
		[]geom.Point{geom.Pt(5, 0), geom.Pt(5, 1), geom.Pt(5, 2), geom.Pt(5, 3)},
		[]geom.Point{geom.Pt(5.5, 0), geom.Pt(5.5, 1), geom.Pt(5.5, 2), geom.Pt(20, 20)},
	)
	p := Params{M: 2, K: 3, Eps: 1}
	want := Result{{Objects: ids(1, 2), Start: 1, End: 3}}
	for _, variant := range []Variant{VariantCuTS, VariantCuTSPlus, VariantCuTSStar} {
		res, _, err := runQuery(db, p, WithVariant(variant), WithDelta(0.5), WithLambda(2))
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		if !res.Equal(want) {
			t.Errorf("%v = %v, want %v", variant, res, want)
		}
	}
}

func TestCuTSStatsSanity(t *testing.T) {
	db := buildDB(t, 0,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0.01), geom.Pt(2, 0), geom.Pt(3, 0.01), geom.Pt(4, 0), geom.Pt(5, 0)},
		[]geom.Point{geom.Pt(0, 0.4), geom.Pt(1, 0.4), geom.Pt(2, 0.4), geom.Pt(3, 0.4), geom.Pt(4, 0.4), geom.Pt(5, 0.4)},
	)
	p := Params{M: 2, K: 4, Eps: 1}
	res, st, err := runQuery(db, p, WithVariant(VariantCuTS), WithDelta(0.2), WithLambda(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("res = %v", res)
	}
	if st.Delta != 0.2 || st.Lambda != 3 {
		t.Errorf("stats params: %+v", st)
	}
	if st.NumPartitions != 2 {
		t.Errorf("NumPartitions = %d, want 2", st.NumPartitions)
	}
	if st.NumCandidates < 1 {
		t.Errorf("NumCandidates = %d", st.NumCandidates)
	}
	if st.RefineUnits <= 0 {
		t.Errorf("RefineUnits = %g", st.RefineUnits)
	}
	if st.VertexTotal != 12 || st.VertexKept < 4 || st.VertexKept > 12 {
		t.Errorf("vertex accounting: %+v", st)
	}
	if st.VertexReduction() < 0 || st.VertexReduction() >= 1 {
		t.Errorf("VertexReduction = %g", st.VertexReduction())
	}
	if st.TotalTime() < st.SimplifyTime {
		t.Error("TotalTime must include all phases")
	}
}

func TestCandidateRefinementUnits(t *testing.T) {
	// The paper's example: 3 objects, lifetime 2 → 3²·2 = 18.
	c := Candidate{Support: ids(1, 2, 3), Start: 5, End: 6}
	if got := c.RefinementUnits(); got != 18 {
		t.Errorf("RefinementUnits = %g, want 18", got)
	}
	if c.Window() != 2 {
		t.Errorf("Window = %d", c.Window())
	}
}

func TestCuTSInvalidParams(t *testing.T) {
	db := buildDB(t, 0, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)})
	if _, _, err := runQuery(db, Params{M: 0, K: 1, Eps: 1}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestCuTSEmptyDB(t *testing.T) {
	res, st, err := runQuery(model.NewDB(), Params{M: 2, K: 2, Eps: 1}, WithVariant(VariantCuTSStar))
	if err != nil || len(res) != 0 {
		t.Errorf("empty DB: res=%v err=%v", res, err)
	}
	if st.NumCandidates != 0 {
		t.Errorf("empty DB produced candidates: %+v", st)
	}
}

// TestFilterProducesSuperset: every convoy found by CMC lies within some
// filter candidate (objects within support, interval within window) — the
// filter's no-false-dismissal guarantee in isolation.
func TestFilterProducesSuperset(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for iter := 0; iter < 30; iter++ {
		db := randomDB(r, 4+r.Intn(4), 10+r.Intn(12))
		p := Params{M: 2, K: int64(2 + r.Intn(3)), Eps: 0.8 + r.Float64()*2}
		truth, err := runCMC(db, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []Variant{VariantCuTS, VariantCuTSPlus, VariantCuTSStar} {
			delta := r.Float64() * 2
			lambda := int64(1 + r.Intn(6))
			sts := simplify.SimplifyAll(db, delta, variant.SimplifyMethod())
			cands := Filter(db, p, sts, FilterConfig{
				Lambda:    lambda,
				Bound:     variant.Bound(),
				Tolerance: dbscan.ActualTolerance,
				Delta:     delta,
			})
			for _, cv := range truth {
				covered := false
				for _, cand := range cands {
					if cand.Start <= cv.Start && cv.End <= cand.End && subsetSorted(cv.Objects, cand.Support) {
						covered = true
						break
					}
				}
				if !covered {
					t.Fatalf("%v (δ=%.2f λ=%d): convoy %v not covered by any candidate %+v",
						variant, delta, lambda, cv, cands)
				}
			}
		}
	}
}

// The paper's central guarantee (Lemmas 1–3 + refinement): the CuTS family
// returns exactly the CMC answer for any δ and λ. This is the
// cross-algorithm equivalence property test.
func TestPropCuTSFamilyEqualsCMC(t *testing.T) {
	r := rand.New(rand.NewSource(140))
	for iter := 0; iter < 30; iter++ {
		db := randomDB(r, 3+r.Intn(5), 8+r.Intn(12))
		p := Params{
			M:   1 + r.Intn(3),
			K:   int64(1 + r.Intn(4)),
			Eps: 0.5 + r.Float64()*2.5,
		}
		want, err := runCMC(db, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []Variant{VariantCuTS, VariantCuTSPlus, VariantCuTSStar} {
			delta := r.Float64() * 3 // any δ must preserve correctness
			lambda := int64(1 + r.Intn(7))
			if delta == 0 {
				delta = 0.01
			}
			got, _, err := runQuery(db, p, WithVariant(variant), WithDelta(delta), WithLambda(lambda))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("iter %d %v (m=%d k=%d e=%.3f δ=%.3f λ=%d):\ngot  = %v\nwant = %v",
					iter, variant, p.M, p.K, p.Eps, delta, lambda, got, want)
			}
		}
	}
}

// Same equivalence with the automatic δ/λ guidelines and with global
// tolerances (Figure 14's configuration switch must not affect answers).
func TestPropCuTSGuidelinesAndGlobalTolEqualCMC(t *testing.T) {
	r := rand.New(rand.NewSource(222))
	for iter := 0; iter < 12; iter++ {
		db := randomDB(r, 4+r.Intn(4), 10+r.Intn(10))
		p := Params{M: 2, K: int64(2 + r.Intn(3)), Eps: 1 + r.Float64()*2}
		want, err := runCMC(db, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []Variant{VariantCuTS, VariantCuTSStar} {
			// Automatic guidelines.
			got, st, err := runQuery(db, p, WithVariant(variant))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%v auto (δ=%.3f λ=%d):\ngot  = %v\nwant = %v",
					variant, st.Delta, st.Lambda, got, want)
			}
			// Global tolerance mode.
			got, _, err = runQuery(db, p,
				WithVariant(variant),
				WithDelta(0.5+r.Float64()),
				WithLambda(int64(1+r.Intn(5))),
				WithTolerance(dbscan.GlobalTolerance))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%v global-tol:\ngot  = %v\nwant = %v", variant, got, want)
			}
		}
	}
}

// Planted-convoy integration test at a slightly larger scale: three convoys
// of known composition must be recovered exactly by all four algorithms.
func TestPlantedConvoysAllAlgorithms(t *testing.T) {
	const ticks = 60
	r := rand.New(rand.NewSource(7))
	mk := func(n int, y0 float64, start, end int) [][]geom.Point {
		rows := make([][]geom.Point, n)
		for o := range rows {
			row := make([]geom.Point, ticks)
			for i := 0; i < ticks; i++ {
				if i < start || i > end {
					// far away, scattered
					row[i] = geom.Pt(float64(i)*3+200+float64(o)*90, 300+float64(o)*70+r.Float64())
				} else {
					row[i] = geom.Pt(float64(i)*3, y0+float64(o)*0.8)
				}
			}
			rows[o] = row
		}
		return rows
	}
	var rows [][]geom.Point
	rows = append(rows, mk(3, 0, 0, 29)...)    // convoy A: objects 0-2, ticks 0-29
	rows = append(rows, mk(4, 50, 20, 59)...)  // convoy B: objects 3-6, ticks 20-59
	rows = append(rows, mk(2, 100, 10, 49)...) // convoy C: objects 7-8, ticks 10-49
	db := buildDB(t, 0, rows...)
	p := Params{M: 2, K: 10, Eps: 1.5}

	want, err := runCMC(db, p)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got Result) {
		t.Helper()
		if !got.Equal(want) {
			t.Errorf("%s:\ngot  = %v\nwant = %v", name, got, want)
		}
		for _, expected := range []Convoy{
			{Objects: ids(0, 1, 2), Start: 0, End: 29},
			{Objects: ids(3, 4, 5, 6), Start: 20, End: 59},
			{Objects: ids(7, 8), Start: 10, End: 49},
		} {
			found := false
			for _, c := range got {
				if c.Equal(expected) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: planted convoy %v missing from %v", name, expected, got)
			}
		}
	}
	check("CMC", want)
	for _, variant := range []Variant{VariantCuTS, VariantCuTSPlus, VariantCuTSStar} {
		res, _, err := runQuery(db, p, WithVariant(variant))
		if err != nil {
			t.Fatal(err)
		}
		check(variant.String(), res)
	}
}
