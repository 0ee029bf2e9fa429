package increment

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/model"
)

// reference is the from-scratch answer the Engine must match, canonicalized
// into the Engine's cluster-list order (ascending member list).
func reference(ids []model.ObjectID, pts []geom.Point, eps float64, m int) [][]model.ObjectID {
	return sortClusters(dbscan.SnapshotClusters(ids, pts, eps, m))
}

func sortClusters(cs [][]model.ObjectID) [][]model.ObjectID {
	slices.SortFunc(cs, slices.Compare[[]model.ObjectID])
	return cs
}

// world is a mutable population the tests evolve tick by tick.
type world struct {
	r    *rand.Rand
	ids  []model.ObjectID
	pos  map[model.ObjectID]geom.Point
	next model.ObjectID
}

func newWorld(seed int64, n int, extent float64) *world {
	w := &world{r: rand.New(rand.NewSource(seed)), pos: map[model.ObjectID]geom.Point{}}
	for i := 0; i < n; i++ {
		w.spawn(extent)
	}
	return w
}

func (w *world) spawn(extent float64) {
	id := w.next
	w.next++
	w.ids = append(w.ids, id)
	w.pos[id] = geom.Pt(w.r.Float64()*extent, w.r.Float64()*extent)
}

func (w *world) remove(i int) {
	delete(w.pos, w.ids[i])
	w.ids = append(w.ids[:i], w.ids[i+1:]...)
}

// step moves each object with probability moveProb, and spawns/removes one
// object with probability churnPop.
func (w *world) step(extent, moveProb, churnPop float64) {
	for _, id := range w.ids {
		if w.r.Float64() < moveProb {
			p := w.pos[id]
			w.pos[id] = clampPt(p.X+w.r.NormFloat64()*2, p.Y+w.r.NormFloat64()*2, extent)
		}
	}
	if w.r.Float64() < churnPop {
		w.spawn(extent)
	}
	if len(w.ids) > 1 && w.r.Float64() < churnPop {
		w.remove(w.r.Intn(len(w.ids)))
	}
}

func clampPt(x, y, extent float64) geom.Point {
	return geom.Pt(math.Min(math.Max(x, 0), extent), math.Min(math.Max(y, 0), extent))
}

func (w *world) snapshot() ([]model.ObjectID, []geom.Point) {
	ids := append([]model.ObjectID(nil), w.ids...)
	pts := make([]geom.Point, len(ids))
	for i, id := range ids {
		pts[i] = w.pos[id]
	}
	return ids, pts
}

// checkTick feeds one snapshot and fails on any disagreement with the
// from-scratch reference.
func checkTick(t *testing.T, e *Engine, ids []model.ObjectID, pts []geom.Point, eps float64, m int, tick int) Pass {
	t.Helper()
	got, pass := e.Tick(ids, pts)
	want := reference(ids, pts, eps, m)
	if !reflect.DeepEqual(sortClusters(got), want) {
		t.Fatalf("tick %d (full=%v): clusters diverged\n got %v\nwant %v", tick, pass.Full, got, want)
	}
	return pass
}

// TestEngineMatchesReference pins incremental ≡ from-scratch label-for-label
// across churn rates, including the 100%-churn fallback regime and
// population appearance/disappearance.
func TestEngineMatchesReference(t *testing.T) {
	const eps, m = 6.0, 3
	for _, tc := range []struct {
		name               string
		moveProb, churnPop float64
	}{
		{"frozen", 0, 0},
		{"low-churn", 0.05, 0.02},
		{"medium-churn", 0.3, 0.1},
		{"full-churn", 1, 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(1, 60, 50)
			e := New(eps, m, DefaultChurnThreshold)
			var incs, fulls int
			for tick := 0; tick < 120; tick++ {
				ids, pts := w.snapshot()
				if checkTick(t, e, ids, pts, eps, m, tick).Full {
					fulls++
				} else {
					incs++
				}
				w.step(50, tc.moveProb, tc.churnPop)
			}
			if tc.moveProb <= 0.05 && incs == 0 {
				t.Fatalf("low churn but zero incremental passes (%d full)", fulls)
			}
			if tc.moveProb == 1 && incs != 0 {
				t.Fatalf("100%% churn should always fall back, got %d incremental passes", incs)
			}
		})
	}
}

// TestEngineEpsBoundaryDither parks pairs exactly at distance eps and
// dithers one endpoint across the boundary every tick: the ≤-inclusive
// predicate must flip edges identically to the from-scratch pass.
func TestEngineEpsBoundaryDither(t *testing.T) {
	const eps, m = 5.0, 2
	e := New(eps, m, 0.9) // high threshold: keep the dithering incremental
	r := rand.New(rand.NewSource(7))
	base := []geom.Point{
		geom.Pt(0, 0), geom.Pt(eps, 0), // exactly at eps: in
		geom.Pt(100, 0), geom.Pt(100+eps, 0),
		geom.Pt(0, 100), geom.Pt(math.Nextafter(eps, 0), 100),
	}
	ids := make([]model.ObjectID, len(base))
	for i := range ids {
		ids[i] = i
	}
	for tick := 0; tick < 200; tick++ {
		pts := append([]geom.Point(nil), base...)
		// Dither one endpoint of one pair just across the boundary.
		i := 1 + 2*r.Intn(3)
		pts[i].X += (r.Float64() - 0.5) * 1e-9
		checkTick(t, e, ids, pts, eps, m, tick)
	}
}

// TestEngineDegenerateInput pins the stateless fallback: non-finite
// coordinates and duplicate ids answer via the reference path, count as
// full passes, and drop the state (the next clean tick is full too).
func TestEngineDegenerateInput(t *testing.T) {
	const eps, m = 5.0, 2
	e := New(eps, m, DefaultChurnThreshold)
	ids := []model.ObjectID{0, 1, 2}
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	checkTick(t, e, ids, pts, eps, m, 0)
	if p := checkTick(t, e, ids, pts, eps, m, 1); p.Full {
		t.Fatalf("clean identical tick should be incremental")
	}

	nan := []geom.Point{geom.Pt(math.NaN(), 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	if p := checkTick(t, e, ids, nan, eps, m, 2); !p.Full {
		t.Fatalf("non-finite input must be a full pass")
	}
	if p := checkTick(t, e, ids, pts, eps, m, 3); !p.Full {
		t.Fatalf("tick after degenerate input must rebuild from scratch")
	}

	dup := []model.ObjectID{0, 1, 1}
	if p := checkTick(t, e, dup, pts, eps, m, 4); !p.Full {
		t.Fatalf("duplicate-id input must be a full pass")
	}
	if got, _ := e.Tick([]model.ObjectID{9}, []geom.Point{geom.Pt(0, 0)}); got != nil && m > 1 {
		t.Fatalf("singleton below m must have no clusters, got %v", got)
	}

	if got, _ := e.Tick(ids[:2], pts); got != nil {
		t.Fatalf("mismatched slice lengths must answer nil, got %v", got)
	}
}

// TestEngineCountersProveReuse pins the acceptance claim behind the bench:
// on a low-churn stream the engine must actually skip work, not merely run.
func TestEngineCountersProveReuse(t *testing.T) {
	const eps, m = 6.0, 3
	w := newWorld(3, 80, 60)
	e := New(eps, m, DefaultChurnThreshold)
	for tick := 0; tick < 100; tick++ {
		ids, pts := w.snapshot()
		checkTick(t, e, ids, pts, eps, m, tick)
		w.step(60, 0.05, 0)
	}
	full, inc, recl, seen := e.Counters()
	if full+inc != 100 {
		t.Fatalf("pass accounting: full=%d inc=%d, want 100 total", full, inc)
	}
	if inc < 90 {
		t.Fatalf("low-churn stream: want ≥90 incremental passes, got %d (full=%d)", inc, full)
	}
	if recl >= seen/2 {
		t.Fatalf("reuse ratio too low: reclustered %d of %d objects", recl, seen)
	}
}

// TestEngineReset drops cross-tick state but keeps counters.
func TestEngineReset(t *testing.T) {
	const eps, m = 5.0, 2
	e := New(eps, m, DefaultChurnThreshold)
	ids := []model.ObjectID{0, 1}
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	e.Tick(ids, pts)
	if _, p := e.Tick(ids, pts); p.Full {
		t.Fatalf("second identical tick should be incremental")
	}
	e.Reset()
	if _, p := e.Tick(ids, pts); !p.Full {
		t.Fatalf("tick after Reset must be full")
	}
	if full, inc, _, seen := e.Counters(); full != 2 || inc != 1 || seen != 6 {
		t.Fatalf("counters survive Reset: full=%d inc=%d seen=%d", full, inc, seen)
	}
}

// TestEngineSlotReuse exercises the vanish-then-appear slot recycling path
// heavily: a rotating population where ids retire and fresh ones take
// their place while neighbors stay clean.
func TestEngineSlotReuse(t *testing.T) {
	const eps, m = 4.0, 2
	e := New(eps, m, 0.5)
	r := rand.New(rand.NewSource(11))
	w := newWorld(5, 40, 40)
	for tick := 0; tick < 150; tick++ {
		ids, pts := w.snapshot()
		checkTick(t, e, ids, pts, eps, m, tick)
		// Retire one object and spawn another every tick; move almost
		// nobody, so the patching works against a mostly clean state.
		if len(w.ids) > 1 {
			w.remove(r.Intn(len(w.ids)))
		}
		w.spawn(40)
		w.step(40, 0.02, 0)
	}
	if _, inc, _, _ := e.Counters(); inc == 0 {
		t.Fatalf("rotating population at low move churn should stay incremental")
	}
}

// TestEngineAcrossAllPairsMax walks a population back and forth over the
// constant that picks a full pass's neighborhood scan — all-pairs up to
// allPairsMax, the grid above it — and holds every tick to the reference.
// A scripted prefix parks the population at allPairsMax−1, allPairsMax and
// allPairsMax+1 on full passes (everyone moved) and on incremental ones (a
// few did: those run on the grid whatever the size, patching neighborhoods
// the other scan may have built), then a random walk keeps crossing in both
// directions between consecutive ticks.
func TestEngineAcrossAllPairsMax(t *testing.T) {
	const eps, m, extent = 6.0, 3, 60.0
	r := rand.New(rand.NewSource(17))
	pool := make([]geom.Point, allPairsMax+16)
	ids := make([]model.ObjectID, len(pool))
	for i := range pool {
		ids[i] = i
		pool[i] = geom.Pt(r.Float64()*extent, r.Float64()*extent)
	}
	type step struct {
		n        int
		moveProb float64
	}
	steps := []step{
		{allPairsMax - 1, 1}, {allPairsMax - 1, 0.03}, {allPairsMax, 0.03}, {allPairsMax + 1, 0.03},
		{allPairsMax + 1, 1}, {allPairsMax, 1}, {allPairsMax, 0.03}, {allPairsMax - 1, 0.03},
		{allPairsMax - 1, 1}, {allPairsMax + 1, 1}, {allPairsMax + 1, 0.03}, {allPairsMax, 0.03},
		{allPairsMax + 16, 1}, {allPairsMax - 16, 1}, {allPairsMax + 16, 0.03}, {allPairsMax - 16, 0.03},
	}
	for len(steps) < 300 {
		s := step{allPairsMax - 8 + r.Intn(17), 0.03}
		if r.Intn(3) == 0 {
			s.moveProb = 1
		}
		steps = append(steps, s)
	}
	e := New(eps, m, DefaultChurnThreshold)
	var fullSmall, fullGrid, incSmall, incGrid int
	for tick, s := range steps {
		for i := 0; i < s.n; i++ {
			if r.Float64() < s.moveProb {
				pool[i] = clampPt(pool[i].X+r.NormFloat64()*2, pool[i].Y+r.NormFloat64()*2, extent)
			}
		}
		pass := checkTick(t, e, ids[:s.n], pool[:s.n], eps, m, tick)
		if wantFull := tick == 0 || s.moveProb == 1; tick < 12 && pass.Full != wantFull {
			t.Fatalf("tick %d (n=%d, moving %g): full=%v, want %v", tick, s.n, s.moveProb, pass.Full, wantFull)
		}
		switch small := s.n <= allPairsMax; {
		case pass.Full && small:
			fullSmall++
		case pass.Full:
			fullGrid++
		case small:
			incSmall++
		default:
			incGrid++
		}
	}
	if fullSmall < 20 || fullGrid < 20 || incSmall < 20 || incGrid < 20 {
		t.Fatalf("walk too one-sided: %d/%d full passes at/below and above allPairsMax, %d/%d incremental", fullSmall, fullGrid, incSmall, incGrid)
	}
}
