package core

import (
	"math/rand"
	"slices"
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

// Planted-convoy integration test at a slightly larger scale: the oracle's
// answer holds the three convoys of known composition, and all four
// algorithms answer exactly that.
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

	want := oracleAnswer(db, p)
	for _, planted := range []Convoy{
		{Objects: ids(0, 1, 2), Start: 0, End: 29},
		{Objects: ids(3, 4, 5, 6), Start: 20, End: 59},
		{Objects: ids(7, 8), Start: 10, End: 49},
	} {
		if !slices.ContainsFunc(want, planted.Equal) {
			t.Errorf("planted convoy %v missing from the oracle's answer %v", planted, want)
		}
	}
	for _, algo := range queryAlgos {
		if res, _, err := runQuery(db, p, algo.opt); err != nil || !res.Equal(want) {
			t.Errorf("%s = %v (%v), want %v", algo.name, res, err, want)
		}
	}
}
