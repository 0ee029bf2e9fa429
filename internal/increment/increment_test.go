package increment

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/oracle"
)

// reference is the answer the Engine must match: the oracle's naive
// snapshot clustering, in the Engine's cluster-list order (ascending member
// list).
func reference(ids []model.ObjectID, pts []geom.Point, eps float64, m int) [][]model.ObjectID {
	return oracle.Clusters(ids, pts, m, eps)
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
// reference, cluster order included.
func checkTick(t *testing.T, e *Engine, ids []model.ObjectID, pts []geom.Point, eps float64, m int, tick int) Pass {
	t.Helper()
	got, pass := e.Tick(ids, pts)
	want := reference(ids, pts, eps, m)
	if !reflect.DeepEqual(got, want) {
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

// TestEngineDegenerateInput pins what garbage input gets: non-finite
// coordinates and duplicate ids each get a full pass that answers the
// reference, mismatched slices a full pass that answers nil, and every one
// drops the state — the next clean tick is a full pass although it repeats
// the last clean one, and only the tick after it is incremental again.
func TestEngineDegenerateInput(t *testing.T) {
	const eps, m = 5.0, 2
	e := New(eps, m, DefaultChurnThreshold)
	ids := []model.ObjectID{0, 1, 2}
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	checkTick(t, e, ids, pts, eps, m, 0)
	if p := checkTick(t, e, ids, pts, eps, m, 1); p.Full {
		t.Fatalf("clean identical tick should be incremental")
	}
	tick := 2
	for _, bad := range []struct {
		name string
		ids  []model.ObjectID
		pts  []geom.Point
	}{
		{"NaN", ids, []geom.Point{geom.Pt(math.NaN(), 0), geom.Pt(1, 0), geom.Pt(2, 0)}},
		{"+Inf", ids, []geom.Point{geom.Pt(0, 0), geom.Pt(1, math.Inf(1)), geom.Pt(2, 0)}},
		{"duplicate ids", []model.ObjectID{0, 1, 1}, pts},
		{"mismatched slices", ids[:2], pts},
	} {
		if len(bad.ids) == len(bad.pts) {
			if p := checkTick(t, e, bad.ids, bad.pts, eps, m, tick); !p.Full {
				t.Fatalf("%s: a degenerate tick must be a full pass", bad.name)
			}
		} else if got, p := e.Tick(bad.ids, bad.pts); got != nil || !p.Full {
			t.Fatalf("%s: got %v (full=%v), want nil from a full pass", bad.name, got, p.Full)
		}
		if p := checkTick(t, e, ids, pts, eps, m, tick+1); !p.Full {
			t.Fatalf("%s: the state must be dropped: the next clean tick must be a full pass", bad.name)
		}
		if p := checkTick(t, e, ids, pts, eps, m, tick+2); p.Full {
			t.Fatalf("%s: the second clean tick should be incremental again", bad.name)
		}
		tick += 3
	}
	if full, inc, _, _ := e.Counters(); full != 1+4*2 || inc != 1+4 {
		t.Fatalf("counters: full=%d inc=%d, want 9 and 5", full, inc)
	}
}

// TestEngineNonFinite: a point with a NaN or infinite coordinate fails
// D2 ≤ e² against every point, itself included, so it is in no
// neighborhood and no cluster — at m = 1 too, where any point that is its
// own neighbor is a cluster. Every row is checked as written and against
// the oracle, on the all-pairs scan and, padded past allPairsMax with
// isolated points, on the grid.
func TestEngineNonFinite(t *testing.T) {
	const eps = 1.0
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		m    int
		pts  []geom.Point
		want [][]model.ObjectID
	}{
		{"lone NaN, m=1", 1, []geom.Point{geom.Pt(nan, 0)}, nil},
		{"lone +Inf, m=1", 1, []geom.Point{geom.Pt(inf, 0)}, nil},
		{"lone -Inf, m=1", 1, []geom.Point{geom.Pt(0, -inf)}, nil},
		{"two +Inf, m=1", 1, []geom.Point{geom.Pt(inf, inf), geom.Pt(inf, inf)}, nil},
		{"NaN beside a point, m=1", 1, []geom.Point{geom.Pt(0, nan), geom.Pt(0, 0)}, [][]model.ObjectID{{1}}},
		{"-Inf beside a point, m=1", 1, []geom.Point{geom.Pt(0, 0), geom.Pt(-inf, 0)}, [][]model.ObjectID{{0}}},
		{"NaN in a pair, m=2", 2, []geom.Point{geom.Pt(0, 0), geom.Pt(nan, nan), geom.Pt(0.5, 0)}, [][]model.ObjectID{{0, 2}}},
		{"+Inf in a pair, m=2", 2, []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(inf, 0)}, [][]model.ObjectID{{0, 1}}},
		{"NaN cannot make a core, m=2", 2, []geom.Point{geom.Pt(0, 0), geom.Pt(nan, 0)}, nil},
		{"two -Inf, m=2", 2, []geom.Point{geom.Pt(-inf, 0), geom.Pt(-inf, 0)}, nil},
	} {
		ids := make([]model.ObjectID, len(tc.pts))
		for i := range ids {
			ids[i] = i
		}
		got, _ := New(eps, tc.m, DefaultChurnThreshold).Tick(ids, tc.pts)
		if !reflect.DeepEqual(got, tc.want) || !reflect.DeepEqual(reference(ids, tc.pts, eps, tc.m), tc.want) {
			t.Fatalf("%s: engine %v, oracle %v, want %v", tc.name, got, reference(ids, tc.pts, eps, tc.m), tc.want)
		}
		pts := append([]geom.Point(nil), tc.pts...)
		for len(pts) <= allPairsMax {
			ids = append(ids, len(pts))
			pts = append(pts, geom.Pt(10*float64(len(pts)), 100))
		}
		padded, _ := New(eps, tc.m, DefaultChurnThreshold).Tick(ids, pts)
		if want := reference(ids, pts, eps, tc.m); !reflect.DeepEqual(padded, want) {
			t.Fatalf("%s: padded past allPairsMax: engine %v, oracle %v", tc.name, padded, want)
		}
	}
}

// TestEngineThresholdOff: at a churn threshold ≤ 0 every pass is full —
// even a tick that repeats the last one — and the answers do not move.
func TestEngineThresholdOff(t *testing.T) {
	const eps, m = 6.0, 3
	for _, threshold := range []float64{0, -1} {
		w := newWorld(3, 80, 60)
		e := New(eps, m, threshold)
		for tick := 0; tick < 40; tick++ {
			ids, pts := w.snapshot()
			if p := checkTick(t, e, ids, pts, eps, m, tick); !p.Full || p.Reclustered != len(ids) {
				t.Fatalf("threshold %g, tick %d: pass %+v, want a full pass over %d objects", threshold, tick, p, len(ids))
			}
			if tick%2 == 0 {
				w.step(60, 0.05, 0.1)
			}
		}
		if full, inc, _, _ := e.Counters(); full != 40 || inc != 0 {
			t.Fatalf("threshold %g: full=%d inc=%d, want 40 and 0", threshold, full, inc)
		}
	}
}

// TestEngineMinPtsOne: at m = 1 every point is a core, so the clusters are
// the plain distance components.
func TestEngineMinPtsOne(t *testing.T) {
	ids := []model.ObjectID{0, 1, 2}
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(10, 0)}
	want := [][]model.ObjectID{{0, 1}, {2}}
	if got, _ := New(1, 1, DefaultChurnThreshold).Tick(ids, pts); !reflect.DeepEqual(got, want) {
		t.Fatalf("clusters = %v, want %v", got, want)
	}
}

// TestEngineEmpty: an empty snapshot is a full pass with no clusters.
func TestEngineEmpty(t *testing.T) {
	if got, p := New(1, 2, DefaultChurnThreshold).Tick(nil, nil); got != nil || !p.Full || p.Reclustered != 0 {
		t.Fatalf("empty snapshot: %v, %+v", got, p)
	}
}

// TestFullPassMatchesOracle: a fresh engine's full pass is the oracle's
// clustering on random snapshots across ε and m = 1…4 — shared borders,
// m = 1 singletons and noise included.
func TestFullPassMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	for iter := 0; iter < 120; iter++ {
		n := r.Intn(30)
		ids := make([]model.ObjectID, n)
		pts := make([]geom.Point, n)
		for i := range pts {
			ids[i] = r.Intn(1000)*n + i // distinct, unsorted
			pts[i] = geom.Pt(r.Float64()*12, r.Float64()*12)
		}
		eps := 0.5 + r.Float64()*2.5
		m := 1 + r.Intn(4)
		checkTick(t, New(eps, m, 0), ids, pts, eps, m, iter)
	}
}

// TestRowsPassMatchesOracle holds the bit-rows full pass to the oracle at
// the word boundaries — 0, 1, 63, 64, 65, 127 and 128 objects — on integer
// coordinates, so coincident points and pairs exactly e apart occur, with
// ids ascending and shuffled, a sprinkle of NaN and ±Inf, and m = 1…4. Each
// snapshot is then ticked again with one object moved: an incremental pass
// (unless the snapshot was degenerate) that patches the neighborhood lists
// read off the rows.
func TestRowsPassMatchesOracle(t *testing.T) {
	const eps = 2.0
	r := rand.New(rand.NewSource(45))
	nan, inf := math.NaN(), math.Inf(1)
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128} {
		side := 2 + int(math.Sqrt(float64(n)))*2
		for iter := 0; iter < 24; iter++ {
			ids := make([]model.ObjectID, n)
			pts := make([]geom.Point, n)
			perm := r.Perm(n)
			clean := true
			for i := range pts {
				ids[i] = 5 * i
				if iter%2 == 1 {
					ids[i] = 5 * perm[i]
				}
				pts[i] = geom.Pt(float64(r.Intn(side)), float64(r.Intn(side)))
				switch k := r.Intn(12); {
				case i > 0 && k == 0: // coincident
					pts[i] = pts[r.Intn(i)]
				case i > 0 && k == 1: // exactly e away
					q := pts[r.Intn(i)]
					pts[i] = geom.Pt(q.X+eps, q.Y)
				case iter%4 == 3 && k == 2:
					pts[i] = [...]geom.Point{geom.Pt(nan, 0), geom.Pt(inf, 1), geom.Pt(2, -inf)}[r.Intn(3)]
					clean = false
				}
			}
			m := 1 + r.Intn(4)
			e := New(eps, m, DefaultChurnThreshold)
			if p := checkTick(t, e, ids, pts, eps, m, iter); !p.Full {
				t.Fatalf("n=%d: a fresh engine's tick was incremental", n)
			}
			if n == 0 {
				continue
			}
			moved := append([]geom.Point(nil), pts...)
			i := r.Intn(n)
			moved[i] = geom.Pt(moved[i].X+1, moved[i].Y)
			if p := checkTick(t, e, ids, moved, eps, m, iter); clean && n >= 4 && p.Full {
				t.Fatalf("n=%d: one object moved after a clean tick, yet the pass was full", n)
			}
		}
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
