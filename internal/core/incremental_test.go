package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// churnWalkDB builds a database of n random walkers over [0, ticks) where
// each object moves each tick with probability moveProb (non-movers keep
// bit-identical positions — the situation the incremental engine exploits).
func churnWalkDB(t *testing.T, seed int64, n, ticks int, moveProb float64) *model.DB {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rows := make([][]geom.Point, n)
	for o := range rows {
		rows[o] = make([]geom.Point, ticks)
		p := geom.Pt(r.Float64()*60, r.Float64()*60)
		for i := 0; i < ticks; i++ {
			if i > 0 && r.Float64() < moveProb {
				p = geom.Pt(p.X+r.NormFloat64(), p.Y+r.NormFloat64())
			}
			rows[o][i] = p
		}
	}
	return buildDB(t, 0, rows...)
}

// TestSetIncrementalResetsState pins the knob semantics: toggling drops the
// engine state (next pass is full), and switching on is a no-op for
// non-default backends.
func TestSetIncrementalResetsState(t *testing.T) {
	if IncrementalDisabled() {
		t.Skipf("%s set", NoIncrementalEnv)
	}
	src, err := NewClusterSource(ClusterKey{Eps: 2, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := []model.ObjectID{0, 1, 2}
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	src.Snapshot(ids, pts)
	src.Snapshot(ids, pts)
	if inc, recl := src.LastPass(); !inc || recl != 0 {
		t.Fatalf("identical tick: LastPass = (%v, %d), want (true, 0)", inc, recl)
	}
	src.SetIncremental(0.5)
	src.Snapshot(ids, pts)
	if inc, _ := src.LastPass(); inc {
		t.Fatalf("pass right after SetIncremental must be full (fresh engine)")
	}
	src.SetIncremental(0)
	if src.Incremental() {
		t.Fatalf("SetIncremental(0) must disable the engine")
	}
	if got := src.Passes(); got != 3 {
		t.Fatalf("Passes = %d, want 3 (counting both modes)", got)
	}
}
