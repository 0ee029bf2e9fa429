package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// TestFigure4Example reproduces Section 3's worked example: with m=2, k=3,
// objects o2 and o3 travel together from t1 to t3 and the answer is
// ⟨o2,o3,[t1,t3]⟩.
func TestFigure4Example(t *testing.T) {
	db := buildDB(t, 1,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(0, 5), geom.Pt(0, 10), geom.Pt(0, 15)},       // o0: drifting away alone
		[]geom.Point{geom.Pt(5, 0), geom.Pt(5, 1), geom.Pt(5, 2), geom.Pt(5, 3)},         // o1
		[]geom.Point{geom.Pt(5.5, 0), geom.Pt(5.5, 1), geom.Pt(5.5, 2), geom.Pt(20, 20)}, // o2 leaves at t4
	)
	res, err := runCMC(db, Params{M: 2, K: 3, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := Result{{Objects: ids(1, 2), Start: 1, End: 3}}
	if !res.Equal(want) {
		t.Errorf("CMC = %v, want %v", res, want)
	}
}

// TestTable2Trace reproduces the CMC execution example of Figure 5/Table 2:
// clusters c11={o0,o1,o2}, c12={o1,o2,o3}, c13={o0,o3}, c23={o1,o2}; with
// m=2, k=3 the only convoy is {o1,o2} over [t1,t3].
func TestTable2Trace(t *testing.T) {
	db := buildDB(t, 1,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(-5, 50), geom.Pt(8, 100)}, // o0
		[]geom.Point{geom.Pt(1, 0), geom.Pt(1, 50), geom.Pt(1, 100)},  // o1
		[]geom.Point{geom.Pt(2, 0), geom.Pt(2, 50), geom.Pt(2, 100)},  // o2
		[]geom.Point{geom.Pt(50, 0), geom.Pt(3, 50), geom.Pt(9, 100)}, // o3
	)
	p := Params{M: 2, K: 3, Eps: 1.5}
	// Sanity-check the snapshot clusters match the scripted trace.
	checkClusters := func(tick model.Tick, want [][]model.ObjectID) {
		ids, pts := db.SnapshotAt(tick)
		got := DefaultClusterer.Clusters(p.ClusterKey(), TickSnapshot{T: tick, IDs: ids, Pts: pts})
		if len(got) != len(want) {
			t.Fatalf("t%d clusters = %v, want %v", tick, got, want)
		}
		for i := range want {
			if !equalSorted(got[i], want[i]) {
				t.Fatalf("t%d clusters = %v, want %v", tick, got, want)
			}
		}
	}
	checkClusters(1, [][]model.ObjectID{{0, 1, 2}})
	checkClusters(2, [][]model.ObjectID{{1, 2, 3}})
	checkClusters(3, [][]model.ObjectID{{0, 3}, {1, 2}})

	res, err := runCMC(db, p)
	if err != nil {
		t.Fatal(err)
	}
	want := Result{{Objects: ids(1, 2), Start: 1, End: 3}}
	if !res.Equal(want) {
		t.Errorf("CMC = %v, want %v", res, want)
	}
}

// TestFigure2aConvoyNotMovingCluster: the convoy {o1,o2,o3} persists for 3
// ticks even though a 4th object shares its cluster at t1 only.
func TestFigure2aConvoyNotMovingCluster(t *testing.T) {
	db := buildDB(t, 1,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(0, 1), geom.Pt(0, 2)},
		[]geom.Point{geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(1, 2)},
		[]geom.Point{geom.Pt(2, 0), geom.Pt(2, 1), geom.Pt(2, 2)},
		[]geom.Point{geom.Pt(3, 0), geom.Pt(30, 1), geom.Pt(30, 2)}, // leaves after t1
	)
	p := Params{M: 3, K: 3, Eps: 1.2}
	res, err := runCMC(db, p)
	if err != nil {
		t.Fatal(err)
	}
	want := Result{{Objects: ids(0, 1, 2), Start: 1, End: 3}}
	if !res.Equal(want) {
		t.Errorf("CMC = %v, want %v", res, want)
	}
}

// TestMissingSamplesInterpolated: an object with a sampling gap still forms
// a convoy thanks to virtual points (Section 4).
func TestMissingSamplesInterpolated(t *testing.T) {
	db := buildDB(t, 0,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0), geom.Pt(4, 0)},
		[]geom.Point{geom.Pt(0, 0.5), absent, absent, geom.Pt(3, 0.5), geom.Pt(4, 0.5)},
	)
	res, err := runCMC(db, Params{M: 2, K: 5, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := Result{{Objects: ids(0, 1), Start: 0, End: 4}}
	if !res.Equal(want) {
		t.Errorf("CMC with gaps = %v, want %v", res, want)
	}
}

// TestLifespanLimitsConvoy: convoys cannot extend beyond an object's
// lifespan even when the other object keeps moving.
func TestLifespanLimitsConvoy(t *testing.T) {
	db := buildDB(t, 0,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0), geom.Pt(4, 0), geom.Pt(5, 0)},
		[]geom.Point{geom.Pt(0, 0.5), geom.Pt(1, 0.5), geom.Pt(2, 0.5), absent, absent, absent},
	)
	res, err := runCMC(db, Params{M: 2, K: 3, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := Result{{Objects: ids(0, 1), Start: 0, End: 2}}
	if !res.Equal(want) {
		t.Errorf("CMC = %v, want %v", res, want)
	}
}

// TestGrowingConvoyTracked: when a larger group forms around an existing
// convoy, both the long small convoy and the shorter big one are reported
// (the first bookkeeping refinement in cmc.go's header comment).
func TestGrowingConvoyTracked(t *testing.T) {
	row := func(y float64, joinAt int) []geom.Point {
		pts := make([]geom.Point, 8)
		for i := range pts {
			if i < joinAt {
				pts[i] = geom.Pt(float64(i), y+100)
			} else {
				pts[i] = geom.Pt(float64(i), y)
			}
		}
		return pts
	}
	db := buildDB(t, 0,
		row(0, 0),   // o0 present from the start
		row(0.5, 0), // o1 present from the start
		row(1.0, 4), // o2 joins at t4
		row(1.5, 4), // o3 joins at t4
	)
	res, err := runCMC(db, Params{M: 2, K: 3, Eps: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	want := Result{
		{Objects: ids(0, 1), Start: 0, End: 7},
		{Objects: ids(2, 3), Start: 0, End: 7},
		{Objects: ids(0, 1, 2, 3), Start: 4, End: 7},
	}
	if !res.Equal(want) {
		t.Errorf("CMC = %v, want %v", res, want)
	}
}

// TestShrinkingConvoyReported: when a large convoy loses members, the big
// group's interval is reported alongside the surviving smaller group.
func TestShrinkingConvoyReported(t *testing.T) {
	row := func(y float64, leaveAt int) []geom.Point {
		pts := make([]geom.Point, 8)
		for i := range pts {
			if leaveAt >= 0 && i >= leaveAt {
				pts[i] = geom.Pt(float64(i), y+100)
			} else {
				pts[i] = geom.Pt(float64(i), y)
			}
		}
		return pts
	}
	db := buildDB(t, 0,
		row(0, -1),   // o0 stays
		row(0.5, -1), // o1 stays
		row(1.0, 4),  // o2 leaves at t4
	)
	res, err := runCMC(db, Params{M: 2, K: 3, Eps: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	want := Result{
		{Objects: ids(0, 1, 2), Start: 0, End: 3},
		{Objects: ids(0, 1), Start: 0, End: 7},
	}
	if !res.Equal(want) {
		t.Errorf("CMC = %v, want %v", res, want)
	}
}

func TestCMCEmptyAndDegenerate(t *testing.T) {
	res, err := runCMC(model.NewDB(), Params{M: 2, K: 2, Eps: 1})
	if err != nil || len(res) != 0 {
		t.Errorf("empty DB: %v, %v", res, err)
	}
	if _, err := runCMC(model.NewDB(), Params{M: 0, K: 2, Eps: 1}); err == nil {
		t.Error("invalid params accepted")
	}
	// One object, m=1, k=1: the object alone is a convoy at every tick.
	db := buildDB(t, 0, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)})
	res, err = runCMC(db, Params{M: 1, K: 1, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := Result{{Objects: ids(0), Start: 0, End: 1}}
	if !res.Equal(want) {
		t.Errorf("singleton convoy = %v, want %v", res, want)
	}
}

func TestCMCNoConvoyBelowLifetime(t *testing.T) {
	db := buildDB(t, 0,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(50, 0)},
		[]geom.Point{geom.Pt(0, 0.5), geom.Pt(1, 0.5), geom.Pt(90, 0)},
	)
	res, err := runCMC(db, Params{M: 2, K: 3, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("2-tick togetherness must not satisfy k=3: %v", res)
	}
}

// randomDB builds a random database mixing co-moving groups and independent
// walkers, with gaps and staggered lifespans.
func randomDB(r *rand.Rand, nObjects, nTicks int) *model.DB {
	db := model.NewDB()
	// Pick group anchors: objects follow an anchor walk with small offsets
	// for part of their lifetime, else wander independently.
	anchors := make([][]geom.Point, 3)
	for a := range anchors {
		walk := make([]geom.Point, nTicks)
		x, y := r.Float64()*20, r.Float64()*20
		for i := 0; i < nTicks; i++ {
			x += r.Float64()*2 - 1
			y += r.Float64()*2 - 1
			walk[i] = geom.Pt(x, y)
		}
		anchors[a] = walk
	}
	for o := 0; o < nObjects; o++ {
		anchor := anchors[r.Intn(len(anchors))]
		start := r.Intn(nTicks / 2)
		end := nTicks/2 + r.Intn(nTicks/2)
		var samples []model.Sample
		offx, offy := r.Float64()*1.2, r.Float64()*1.2
		for i := start; i <= end && i < nTicks; i++ {
			if r.Float64() < 0.15 && len(samples) > 0 && i != end {
				continue // sampling gap
			}
			var p geom.Point
			if r.Float64() < 0.8 {
				p = geom.Pt(anchor[i].X+offx, anchor[i].Y+offy)
			} else {
				p = geom.Pt(r.Float64()*40, r.Float64()*40)
			}
			samples = append(samples, model.Sample{T: model.Tick(i), P: p})
		}
		if len(samples) == 0 {
			samples = append(samples, model.Sample{T: model.Tick(start), P: geom.Pt(0, 0)})
		}
		tr, _ := model.NewTrajectory("", samples)
		db.Add(tr)
	}
	return db
}

// The oracle property: CMC equals the exhaustive-subset brute-force answer
// on small random databases.
func TestPropCMCMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for iter := 0; iter < 40; iter++ {
		db := randomDB(r, 3+r.Intn(5), 8+r.Intn(10))
		p := Params{
			M:   1 + r.Intn(3),
			K:   int64(1 + r.Intn(4)),
			Eps: 0.5 + r.Float64()*2.5,
		}
		got, err := runCMC(db, p)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteConvoys(t, db, p)
		if !got.Equal(want) {
			t.Fatalf("iter %d (m=%d k=%d e=%.3f):\nCMC  = %v\nbrute = %v",
				iter, p.M, p.K, p.Eps, got, want)
		}
	}
}
