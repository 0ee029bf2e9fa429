package oracle

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
)

// bruteMaximalSets is the maximal density-connected sets of one snapshot
// straight from Definitions 1–2: every core's density-reachability closure.
// Neighbourhoods include the point itself.
func bruteMaximalSets(ids []model.ObjectID, pts []geom.Point, eps float64, minPts int) [][]model.ObjectID {
	n := len(pts)
	within := func(i, j int) bool { return geom.D2(pts[i], pts[j]) <= eps*eps }
	nhSize := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if within(i, j) {
				nhSize[i]++
			}
		}
	}
	var out [][]model.ObjectID
	for x := 0; x < n; x++ {
		if nhSize[x] < minPts {
			continue
		}
		reach := make([]bool, n)
		reach[x] = true
		queue := []int{x}
		for head := 0; head < len(queue); head++ {
			c := queue[head]
			if nhSize[c] < minPts {
				continue
			}
			for q := 0; q < n; q++ {
				if !reach[q] && within(c, q) {
					reach[q] = true
					queue = append(queue, q)
				}
			}
		}
		var members []model.ObjectID
		for i, r := range reach {
			if r {
				members = append(members, ids[i])
			}
		}
		out = append(out, members)
	}
	return out
}

// bruteConvoys answers the convoy query by exhaustive subset enumeration:
// for every object subset of size ≥ m it finds the maximal runs of
// consecutive ticks during which the subset lies in a single maximal
// density-connected set, keeps runs of length ≥ k, and lets
// core.Canonicalize drop the dominated ones. Exponential in N (≤ 16).
func bruteConvoys(t *testing.T, db *model.DB, m int, k int64, eps float64) core.Result {
	t.Helper()
	n := db.Len()
	if n > 16 {
		t.Fatalf("bruteConvoys: too many objects (%d)", n)
	}
	lo, hi, ok := db.TimeRange()
	if !ok {
		return nil
	}
	// Per tick: the maximal clusters as object bitmasks.
	clustersAt := make([][]uint32, hi-lo+1)
	for tk := lo; tk <= hi; tk++ {
		var ids []model.ObjectID
		var pts []geom.Point
		for _, tr := range db.Trajectories() {
			if pt, ok := tr.LocationAt(tk); ok {
				ids = append(ids, tr.ID)
				pts = append(pts, pt)
			}
		}
		for _, c := range bruteMaximalSets(ids, pts, eps, m) {
			var mask uint32
			for _, id := range c {
				mask |= 1 << uint(id)
			}
			clustersAt[tk-lo] = append(clustersAt[tk-lo], mask)
		}
	}
	var raw []core.Convoy
	for mask := uint32(1); mask < 1<<uint(n); mask++ {
		var objs []model.ObjectID
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				objs = append(objs, i)
			}
		}
		if len(objs) < m {
			continue
		}
		runStart := model.Tick(-1)
		flush := func(endInclusive model.Tick) {
			if runStart >= 0 && int64(endInclusive-runStart)+1 >= k {
				raw = append(raw, core.Convoy{Objects: objs, Start: runStart, End: endInclusive})
			}
			runStart = -1
		}
		for tk := lo; tk <= hi; tk++ {
			together := false
			for _, cm := range clustersAt[tk-lo] {
				if cm&mask == mask {
					together = true
					break
				}
			}
			if !together {
				flush(tk - 1)
			} else if runStart < 0 {
				runStart = tk
			}
		}
		flush(hi)
	}
	return core.Canonicalize(raw)
}

// randomDB builds n objects over [0, ticks) with staggered lifespans and
// interior sampling gaps (which LocationAt fills by interpolation): each
// sample rides one of three shared anchor walks at the object's offset, or
// is a random point.
func randomDB(r *rand.Rand, n, ticks int) *model.DB {
	anchors := make([][]geom.Point, 3)
	for a := range anchors {
		x, y := r.Float64()*20, r.Float64()*20
		for i := 0; i < ticks; i++ {
			x += r.Float64()*2 - 1
			y += r.Float64()*2 - 1
			anchors[a] = append(anchors[a], geom.Pt(x, y))
		}
	}
	db := model.NewDB()
	for o := 0; o < n; o++ {
		start := r.Intn(ticks / 2)
		end := ticks/2 + r.Intn(ticks-ticks/2)
		anchor := anchors[r.Intn(len(anchors))]
		offset := geom.Pt(r.Float64()*1.2, r.Float64()*1.2)
		var samples []model.Sample
		for i := start; i <= end; i++ {
			if i != start && i != end && r.Float64() < 0.2 {
				continue // a sampling gap
			}
			p := geom.Pt(r.Float64()*40, r.Float64()*40)
			if r.Float64() < 0.75 {
				p = anchor[i].Add(offset)
			}
			samples = append(samples, model.Sample{T: model.Tick(i), P: p})
		}
		tr, err := model.NewTrajectory("", samples)
		if err != nil {
			panic(err)
		}
		db.Add(tr)
	}
	return db
}

// asResult converts an oracle answer into core's type for comparison.
func asResult(cs []Convoy) core.Result {
	out := make(core.Result, len(cs))
	for i, c := range cs {
		out[i] = core.Convoy(c)
	}
	return out
}

// TestOracleMatchesExhaustiveSubsets pins the oracle to the definition by
// a second, exponential route: on seeded random databases of up to twelve
// objects, with sampling gaps, it answers exactly what the subset
// enumeration answers.
func TestOracleMatchesExhaustiveSubsets(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	nonEmpty := 0
	for iter := 0; iter < 60; iter++ {
		db := randomDB(r, 3+r.Intn(10), 8+r.Intn(16))
		m, k, eps := 1+r.Intn(3), int64(1+r.Intn(4)), 0.5+r.Float64()*2.5
		want := bruteConvoys(t, db, m, k, eps)
		got := asResult(Convoys(db, m, k, eps))
		if len(want) > 0 {
			nonEmpty++
		}
		if !got.Equal(want) {
			t.Fatalf("iter %d (N=%d m=%d k=%d e=%.3f):\noracle = %v\nbrute  = %v", iter, db.Len(), m, k, eps, got, want)
		}
	}
	if nonEmpty < 40 {
		t.Fatalf("only %d of 60 databases had a convoy; the comparison is too often vacuous", nonEmpty)
	}
}

// TestOracleTickDomainEdges: the oracle walks a domain that ends at MaxTick
// or starts at MinTick without wrapping.
func TestOracleTickDomainEdges(t *testing.T) {
	for _, start := range []model.Tick{model.MinTick, model.MaxTick - 2} {
		db := model.NewDB()
		for _, y := range []float64{0, 0.5, 50} {
			var samples []model.Sample
			for i := model.Tick(0); i < 3; i++ {
				samples = append(samples, model.Sample{T: start + i, P: geom.Pt(float64(i), y)})
			}
			tr, err := model.NewTrajectory("", samples)
			if err != nil {
				t.Fatal(err)
			}
			db.Add(tr)
		}
		got := fmt.Sprint(Convoys(db, 2, 2, 1))
		if want := fmt.Sprint([]Convoy{{Objects: []model.ObjectID{0, 1}, Start: start, End: start + 2}}); got != want {
			t.Errorf("domain from %d: %s, want %s", start, got, want)
		}
	}
}
