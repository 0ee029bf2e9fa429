package flock

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
)

func buildDB(t *testing.T, rows ...[]geom.Point) *model.DB {
	t.Helper()
	db := model.NewDB()
	for _, row := range rows {
		var samples []model.Sample
		for j, p := range row {
			if math.IsNaN(p.X) {
				continue
			}
			samples = append(samples, model.Sample{T: model.Tick(j), P: p})
		}
		tr, err := model.NewTrajectory("", samples)
		if err != nil {
			t.Fatal(err)
		}
		db.Add(tr)
	}
	return db
}

func TestDiscGroupsSimple(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(10, 0)}
	groups := discGroupsAt(pts, 1)
	// {0,1} fit in a radius-1 disc; {2} alone.
	foundPair, foundSolo := false, false
	for _, g := range groups {
		if len(g) == 2 && g[0] == 0 && g[1] == 1 {
			foundPair = true
		}
		if len(g) == 1 && g[0] == 2 {
			foundSolo = true
		}
	}
	if !foundPair || !foundSolo {
		t.Errorf("groups = %v", groups)
	}
}

func TestDiscGroupsDiameterBoundary(t *testing.T) {
	// Two points exactly 2r apart fit in one disc (touching the boundary).
	groups := discGroupsAt([]geom.Point{geom.Pt(0, 0), geom.Pt(2, 0)}, 1)
	together := false
	for _, g := range groups {
		if len(g) == 2 {
			together = true
		}
	}
	if !together {
		t.Errorf("points at distance 2r should share a disc: %v", groups)
	}
	// Slightly farther apart they must not.
	groups = discGroupsAt([]geom.Point{geom.Pt(0, 0), geom.Pt(2.001, 0)}, 1)
	for _, g := range groups {
		if len(g) == 2 {
			t.Errorf("points beyond 2r share a disc: %v", groups)
		}
	}
}

func TestDiscGroupsCoincidentPoints(t *testing.T) {
	groups := discGroupsAt([]geom.Point{geom.Pt(5, 5), geom.Pt(5, 5), geom.Pt(5, 5)}, 0.5)
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Errorf("coincident points: %v", groups)
	}
}

func TestDiscGroupsThreePointsNeedTwoPointCenter(t *testing.T) {
	// An equilateral-ish triangle with side ~1.7 and r=1: no point-centered
	// disc covers all three, but the circumcenter does.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1.7, 0), geom.Pt(0.85, 1.47)}
	groups := discGroupsAt(pts, 1)
	all3 := false
	for _, g := range groups {
		if len(g) == 3 {
			all3 = true
		}
	}
	if !all3 {
		t.Errorf("triangle should fit a radius-1 disc: %v", groups)
	}
}

func TestDiscoverBasicFlock(t *testing.T) {
	db := buildDB(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)},
		[]geom.Point{geom.Pt(0.5, 0), geom.Pt(1.5, 0), geom.Pt(2.5, 0)},
		[]geom.Point{geom.Pt(50, 0), geom.Pt(51, 0), geom.Pt(52, 0)},
	)
	fs, err := Discover(db, Params{M: 2, K: 3, R: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("flocks = %v", fs)
	}
	if fs[0].Start != 0 || fs[0].End != 2 || len(fs[0].Objects) != 2 {
		t.Errorf("flock = %v", fs[0])
	}
	if fs[0].Lifetime() != 3 {
		t.Errorf("lifetime = %d", fs[0].Lifetime())
	}
}

func TestDiscoverValidation(t *testing.T) {
	db := buildDB(t, []geom.Point{geom.Pt(0, 0)})
	if _, err := Discover(db, Params{M: 0, K: 1, R: 1}); err == nil {
		t.Error("invalid params accepted")
	}
	if fs, err := Discover(model.NewDB(), Params{M: 1, K: 1, R: 1}); err != nil || fs != nil {
		t.Errorf("empty DB: %v %v", fs, err)
	}
}

// TestLossyFlockProblem reproduces Figure 1: four objects travel together in
// a line formation whose extent slightly exceeds the flock disc, so the
// flock query loses o3 while the convoy query (density connection) captures
// the whole group.
func TestLossyFlockProblem(t *testing.T) {
	const ticks = 5
	row := func(y float64) []geom.Point {
		pts := make([]geom.Point, ticks)
		for i := range pts {
			pts[i] = geom.Pt(float64(i)*2, y)
		}
		return pts
	}
	// Line formation spanning 3.3 in y: any radius-1.65 disc covers it, but
	// the flock query is issued with r = 1.2 — o3 at the end is clipped.
	db := buildDB(t, row(0), row(1.1), row(2.2), row(3.3))

	flocks, err := Discover(db, Params{M: 3, K: ticks, R: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	var flockSizes []int
	for _, f := range flocks {
		flockSizes = append(flockSizes, len(f.Objects))
	}
	sort.Ints(flockSizes)
	if len(flocks) == 0 || flockSizes[len(flockSizes)-1] != 3 {
		t.Fatalf("expected the disc to clip the group to 3 members, got %v", flocks)
	}

	convoys, err := core.NewQuery(core.WithParams(core.Params{M: 3, K: ticks, Eps: 1.2}), core.WithCMC()).Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if len(convoys) != 1 || convoys[0].Size() != 4 {
		t.Fatalf("convoy should capture all 4 objects: %v", convoys)
	}
}

// Property: every reported flock is genuinely coverable by a radius-R disc
// at every tick of its interval (soundness of the disc enumeration).
func TestPropFlockSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for iter := 0; iter < 25; iter++ {
		nObj, nTicks := 3+r.Intn(4), 5+r.Intn(6)
		rows := make([][]geom.Point, nObj)
		for o := range rows {
			row := make([]geom.Point, nTicks)
			x, y := r.Float64()*10, r.Float64()*10
			for i := range row {
				x += r.Float64()*2 - 1
				y += r.Float64()*2 - 1
				row[i] = geom.Pt(x, y)
			}
			rows[o] = row
		}
		db := buildDB(t, rows...)
		p := Params{M: 2, K: int64(2 + r.Intn(3)), R: 0.8 + r.Float64()*1.5}
		fs, err := Discover(db, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			if f.Lifetime() < p.K {
				t.Fatalf("flock below lifetime: %v", f)
			}
			if len(f.Objects) < p.M {
				t.Fatalf("flock below cardinality: %v", f)
			}
			for tick := f.Start; tick <= f.End; tick++ {
				var pts []geom.Point
				for _, id := range f.Objects {
					pt, ok := db.Traj(id).LocationAt(tick)
					if !ok {
						t.Fatalf("flock member %d absent at tick %d", id, tick)
					}
					pts = append(pts, pt)
				}
				if !coverableByDisc(pts, p.R) {
					t.Fatalf("flock %v not coverable at tick %d", f, tick)
				}
			}
		}
	}
}

// coverableByDisc reports whether all points fit in some radius-r disc,
// using the same candidate-center argument as the implementation but
// written independently (centers from pairs and single points). Candidate
// centers are constructed from the exact radius while membership is checked
// with a tiny relative slack, so constructed centers sitting exactly on the
// boundary are not rejected by a 1-ulp rounding error.
func coverableByDisc(pts []geom.Point, r float64) bool {
	if len(pts) <= 1 {
		return true
	}
	rr := r * (1 + 1e-9)
	check := func(c geom.Point) bool {
		for _, p := range pts {
			if geom.D(c, p) > rr {
				return false
			}
		}
		return true
	}
	for _, p := range pts {
		if check(p) {
			return true
		}
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			d := geom.D(pts[i], pts[j])
			if d > 2*r || d == 0 {
				continue
			}
			mid := pts[i].Lerp(pts[j], 0.5)
			h := math.Sqrt(math.Max(0, r*r-d*d/4))
			nx, ny := -(pts[j].Y-pts[i].Y)/d, (pts[j].X-pts[i].X)/d
			if check(geom.Pt(mid.X+nx*h, mid.Y+ny*h)) || check(geom.Pt(mid.X-nx*h, mid.Y-ny*h)) {
				return true
			}
		}
	}
	return false
}
