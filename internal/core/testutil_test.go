package core

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// absent marks a missing sample in test position tables.
var absent = geom.Pt(math.NaN(), math.NaN())

// runCMC answers the query with serial CMC — the reference the other
// algorithms and execution strategies are compared against.
func runCMC(db *model.DB, p Params) (Result, error) {
	return NewQuery(WithParams(p), WithCMC()).Run(context.Background(), db)
}

// runQuery answers the query under the given options (CuTS* with the
// automatic δ/λ guidelines unless they say otherwise) and returns the run's
// statistics alongside the result.
func runQuery(db *model.DB, p Params, opts ...Option) (Result, Stats, error) {
	var st Stats
	opts = append([]Option{WithParams(p), WithStats(&st)}, opts...)
	res, err := NewQuery(opts...).Run(context.Background(), db)
	return res, st, err
}

// buildDB constructs a database from per-object position rows: rows[i][j] is
// object i's position at tick startTick+j, with `absent` producing a
// sampling gap (no sample recorded). Leading/trailing absents shrink the
// object's lifespan.
func buildDB(t *testing.T, startTick model.Tick, rows ...[]geom.Point) *model.DB {
	t.Helper()
	db := model.NewDB()
	for _, row := range rows {
		var samples []model.Sample
		for j, p := range row {
			if math.IsNaN(p.X) {
				continue
			}
			samples = append(samples, model.Sample{T: startTick + model.Tick(j), P: p})
		}
		tr, err := model.NewTrajectory("", samples)
		if err != nil {
			t.Fatalf("buildDB: %v", err)
		}
		db.Add(tr)
	}
	return db
}

// bruteMaximalSets is an independent implementation of maximal
// density-connected sets straight from Definitions 1-2 (O(n³), fine for
// test sizes). Neighborhoods include the point itself.
func bruteMaximalSets(ids []model.ObjectID, pts []geom.Point, eps float64, minPts int) [][]model.ObjectID {
	n := len(pts)
	within := func(i, j int) bool { return geom.D(pts[i], pts[j]) <= eps }
	nhSize := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if within(i, j) {
				nhSize[i]++
			}
		}
	}
	core := make([]bool, n)
	for i := range core {
		core[i] = nhSize[i] >= minPts
	}
	seen := map[string]bool{}
	var out [][]model.ObjectID
	for x := 0; x < n; x++ {
		if !core[x] {
			continue
		}
		// Density-reachability closure from core x.
		reach := make([]bool, n)
		reach[x] = true
		queue := []int{x}
		for head := 0; head < len(queue); head++ {
			c := queue[head]
			if !core[c] {
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
		sort.Ints(members)
		key := setKey(members)
		if !seen[key] {
			seen[key] = true
			out = append(out, members)
		}
	}
	return out
}

// bruteConvoys answers the convoy query by exhaustive subset enumeration —
// an independent oracle usable for small N (≤ ~12) and small T. For every
// object subset of size ≥ m it finds the maximal runs of consecutive ticks
// during which the subset is contained in a single maximal
// density-connected set, keeps runs of length ≥ k, and canonicalizes.
func bruteConvoys(t *testing.T, db *model.DB, p Params) Result {
	t.Helper()
	n := db.Len()
	if n > 16 {
		t.Fatalf("bruteConvoys: too many objects (%d)", n)
	}
	lo, hi, ok := db.TimeRange()
	if !ok {
		return nil
	}
	// Per tick: list of maximal clusters as object bitmasks.
	clustersAt := make([][]uint32, hi-lo+1)
	for tk := lo; tk <= hi; tk++ {
		var ids []model.ObjectID
		var pts []geom.Point
		for _, tr := range db.Trajectories() {
			if pt, okk := tr.LocationAt(tk); okk {
				ids = append(ids, tr.ID)
				pts = append(pts, pt)
			}
		}
		if len(ids) < p.M {
			continue
		}
		for _, c := range bruteMaximalSets(ids, pts, p.Eps, p.M) {
			var mask uint32
			for _, id := range c {
				mask |= 1 << uint(id)
			}
			clustersAt[tk-lo] = append(clustersAt[tk-lo], mask)
		}
	}
	var raw []Convoy
	for mask := uint32(1); mask < 1<<uint(n); mask++ {
		size := 0
		var objs []model.ObjectID
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				size++
				objs = append(objs, i)
			}
		}
		if size < p.M {
			continue
		}
		runStart := model.Tick(-1)
		flush := func(endInclusive model.Tick) {
			if runStart >= 0 && int64(endInclusive-runStart)+1 >= p.K {
				raw = append(raw, Convoy{Objects: objs, Start: runStart, End: endInclusive})
			}
			runStart = -1
		}
		for tk := lo; tk <= hi; tk++ {
			co := false
			for _, cm := range clustersAt[tk-lo] {
				if cm&mask == mask {
					co = true
					break
				}
			}
			if co {
				if runStart < 0 {
					runStart = tk
				}
			} else {
				flush(tk - 1)
			}
		}
		flush(hi)
	}
	return Canonicalize(raw)
}
