package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/simplify"
)

func TestComputeDeltaEmptyDB(t *testing.T) {
	if got := ComputeDelta(model.NewDB(), 10); got != 5 {
		t.Errorf("empty DB δ = %g, want fallback e/2", got)
	}
}

func TestComputeDeltaCollinearFallsBack(t *testing.T) {
	// Perfectly straight trajectories produce no split profile: fall back.
	db := buildDB(t, 0, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0)})
	if got := ComputeDelta(db, 8); got != 4 {
		t.Errorf("collinear δ = %g, want 4", got)
	}
}

func TestComputeDeltaBelowEps(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	db := model.NewDB()
	for o := 0; o < 20; o++ {
		var samples []model.Sample
		x, y := r.Float64()*10, r.Float64()*10
		for i := 0; i < 60; i++ {
			x += r.Float64()*4 - 2
			y += r.Float64()*4 - 2
			samples = append(samples, model.Sample{T: model.Tick(i), P: geom.Pt(x, y)})
		}
		tr, _ := model.NewTrajectory("", samples)
		db.Add(tr)
	}
	for _, e := range []float64{0.5, 2, 8} {
		got := ComputeDelta(db, e)
		if got <= 0 || got >= e {
			t.Errorf("δ(e=%g) = %g, want in (0, e)", e, got)
		}
	}
}

func TestComputeDeltaLargestGapSelection(t *testing.T) {
	// A trajectory engineered so the δ=0 DP profile has a clear gap: one
	// large detour (distance ≈ 5) and small wiggles (≈ 0.3). The guideline
	// must pick a value near the small wiggles, not near the detour.
	var pts []geom.Point
	for i := 0; i < 40; i++ {
		y := 0.0
		if i%4 == 1 {
			y = 0.3
		}
		if i == 20 {
			y = 5
		}
		pts = append(pts, geom.Pt(float64(i), y))
	}
	db := buildDB(t, 0, pts)
	got := ComputeDelta(db, 10)
	if got > 1 {
		t.Errorf("δ = %g, want below the big-detour scale (≤ 1)", got)
	}
	if got <= 0 {
		t.Errorf("δ = %g, want positive", got)
	}
}

func TestComputeLambdaBounds(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	db := model.NewDB()
	for o := 0; o < 10; o++ {
		var samples []model.Sample
		x := 0.0
		for i := 0; i < 100; i++ {
			x += r.Float64()
			samples = append(samples, model.Sample{T: model.Tick(i), P: geom.Pt(x, r.Float64()*0.2)})
		}
		tr, _ := model.NewTrajectory("", samples)
		db.Add(tr)
	}
	sts := simplifyAll(db, 1.0, simplify.DP)
	for _, k := range []int64{1, 5, 50, 1000} {
		lam := ComputeLambda(db, sts, k)
		if lam < 1 || lam > k {
			t.Errorf("λ(k=%d) = %d, want in [1, k]", k, lam)
		}
	}
}

func TestComputeLambdaEmpty(t *testing.T) {
	if got := ComputeLambda(model.NewDB(), nil, 10); got != 1 {
		t.Errorf("empty λ = %d, want 1", got)
	}
}

func TestComputeLambdaGrowsWithReduction(t *testing.T) {
	// Heavily reducible trajectories (straight lines) should yield larger λ
	// than barely reducible ones (dense zig-zags), mirroring Section 7.4's
	// |o'|/|o| ... wait: straight lines have SMALL |o'|/|o|. The formula
	// λ ≈ o.τ·ratio means low reduction (ratio→1) gives λ ≈ o.τ, while high
	// reduction gives small λ·… — verify the relative order the formula
	// implies rather than intuition.
	// Lifespans are staggered so o.τ < T; otherwise the (1 − o.τ/T) factor
	// vanishes and λ degenerates to 2 regardless of the reduction ratio.
	mk := func(zigzag bool) *model.DB {
		db := model.NewDB()
		for o := 0; o < 4; o++ {
			var samples []model.Sample
			base := model.Tick(o * 25)
			for i := 0; i < 50; i++ {
				y := 0.0
				if zigzag && i%2 == 1 {
					y = 3
				}
				samples = append(samples, model.Sample{T: base + model.Tick(i), P: geom.Pt(float64(i), y)})
			}
			tr, _ := model.NewTrajectory("", samples)
			db.Add(tr)
		}
		return db
	}
	const k = 1 << 30 // effectively uncapped
	straight := mk(false)
	lamStraight := ComputeLambda(straight, simplifyAll(straight, 0.5, simplify.DP), k)
	zig := mk(true)
	lamZig := ComputeLambda(zig, simplifyAll(zig, 0.5, simplify.DP), k)
	if lamStraight >= lamZig {
		t.Errorf("λ(straight)=%d should be below λ(zigzag)=%d per the Section 7.4 formula",
			lamStraight, lamZig)
	}
}
