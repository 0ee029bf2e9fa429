package core

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// figure2aDB: objects 0-2 travel together for 3 ticks; object 3 shares
// their cluster at t1 only.
func figure2aDB(t *testing.T) *model.DB {
	return buildDB(t, 1,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(0, 1), geom.Pt(0, 2)},
		[]geom.Point{geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(1, 2)},
		[]geom.Point{geom.Pt(2, 0), geom.Pt(2, 1), geom.Pt(2, 2)},
		[]geom.Point{geom.Pt(3, 0), geom.Pt(30, 1), geom.Pt(30, 2)},
	)
}

// TestFigure2aMC2MissesConvoy: with θ = 1, MC2 cannot discover the convoy
// {o0,o1,o2}×[1,3] because the t1→t2 overlap is only 3/4.
func TestFigure2aMC2MissesConvoy(t *testing.T) {
	db := figure2aDB(t)
	p := Params{M: 3, K: 3, Eps: 1.2}
	convoys, err := runCMC(db, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(convoys) != 1 {
		t.Fatalf("CMC = %v", convoys)
	}
	mc, err := MC2(db, p, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rep := CompareAnswers(mc, convoys)
	if rep.FalseNegatives != 100 {
		t.Errorf("θ=1 should miss the convoy entirely: %+v (mc=%v)", rep, mc)
	}
	// With θ = 0.5 the chain survives t1→t2 and the common set matches the
	// convoy — but this is luck, not a guarantee (see Figure 2(b)).
	mc, err = MC2(db, p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range mc {
		if c.Equal(convoys[0]) {
			found = true
		}
	}
	if !found {
		t.Errorf("θ=0.5 chain should cover the convoy: %v", mc)
	}
}

// TestFigure2bMC2FalsePositive: membership drifts o0o1o2 → o1o2o3 → o2o3o0;
// with θ = 0.5 MC2 chains them into a "convoy" although no 3-object set
// stays together 3 ticks.
func TestFigure2bMC2FalsePositive(t *testing.T) {
	db := buildDB(t, 1,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(0, -50), geom.Pt(4, 2)}, // o0: leaves, returns
		[]geom.Point{geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(50, 2)},  // o1: leaves at t3
		[]geom.Point{geom.Pt(2, 0), geom.Pt(2, 1), geom.Pt(2, 2)},   // o2: stays
		[]geom.Point{geom.Pt(40, 0), geom.Pt(3, 1), geom.Pt(3, 2)},  // o3: joins at t2
	)
	p := Params{M: 3, K: 3, Eps: 1.2}
	convoys, err := runCMC(db, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(convoys) != 0 {
		t.Fatalf("no convoy expected, CMC = %v", convoys)
	}
	mc, err := MC2(db, p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc) == 0 {
		t.Fatal("MC2 should chain the drifting clusters")
	}
	rep := CompareAnswers(mc, convoys)
	if rep.FalsePositives != 100 {
		t.Errorf("all MC2 answers should be false positives: %+v (mc=%v)", rep, mc)
	}
	// At least one reported chain must span all three ticks (the drift).
	spanned := false
	for _, c := range mc {
		if c.Start == 1 && c.End == 3 {
			spanned = true
		}
	}
	if !spanned {
		t.Errorf("expected a chain spanning [1,3]: %v", mc)
	}
}

func TestMC2ThetaValidation(t *testing.T) {
	db := figure2aDB(t)
	p := Params{M: 2, K: 1, Eps: 1.2}
	if _, err := MC2(db, p, -0.1); err == nil {
		t.Error("negative θ accepted")
	}
	if _, err := MC2(db, p, 1.1); err == nil {
		t.Error("θ > 1 accepted")
	}
	if _, err := MC2(db, p, 0.7); err != nil {
		t.Errorf("valid θ rejected: %v", err)
	}
	if _, err := MC2(db, Params{M: 0, K: 1, Eps: 1}, 0.5); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestMC2EmptyDB(t *testing.T) {
	mc, err := MC2(model.NewDB(), Params{M: 2, K: 1, Eps: 1}, 0.5)
	if err != nil || len(mc) != 0 {
		t.Errorf("empty DB: %v, %v", mc, err)
	}
}

// TestMC2NoLifetimeConstraint: a 1-tick cluster is still reported (moving
// clusters ignore k).
func TestMC2NoLifetimeConstraint(t *testing.T) {
	db := buildDB(t, 0,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(0, 50)},
		[]geom.Point{geom.Pt(1, 0), geom.Pt(80, 50)},
	)
	mc, err := MC2(db, Params{M: 2, K: 100, Eps: 1.5}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc) != 1 || mc[0].Start != 0 || mc[0].End != 0 {
		t.Errorf("MC2 = %v, want the single 1-tick cluster", mc)
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []model.ObjectID
		want float64
	}{
		{ids(1, 2, 3), ids(1, 2, 3), 1},
		{ids(1, 2, 3), ids(2, 3, 4), 0.5},
		{ids(1, 2), ids(3, 4), 0},
		{ids(1, 2, 3), ids(2, 3, 4, 5), 2.0 / 5},
		{nil, nil, 0},
		{ids(1), nil, 0},
	}
	for _, c := range cases {
		if got := jaccard(c.a, c.b); got != c.want {
			t.Errorf("jaccard(%v,%v) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAnswersArithmetic(t *testing.T) {
	ref := Canonicalize([]Convoy{
		{Objects: ids(1, 2), Start: 0, End: 9},
		{Objects: ids(3, 4), Start: 5, End: 14},
	})
	reported := []Convoy{
		{Objects: ids(1, 2), Start: 0, End: 9},  // true positive
		{Objects: ids(7, 8), Start: 0, End: 3},  // false positive
		{Objects: ids(9, 10), Start: 0, End: 3}, // false positive
	}
	rep := CompareAnswers(reported, ref)
	if rep.Reported != 3 || rep.Reference != 2 {
		t.Errorf("counts: %+v", rep)
	}
	if rep.FalsePositives < 66.6 || rep.FalsePositives > 66.7 {
		t.Errorf("FP = %g, want 2/3", rep.FalsePositives)
	}
	if rep.FalseNegatives != 50 {
		t.Errorf("FN = %g, want 50", rep.FalseNegatives)
	}
	empty := CompareAnswers(nil, nil)
	if empty.FalsePositives != 0 || empty.FalseNegatives != 0 {
		t.Errorf("empty comparison: %+v", empty)
	}
}
