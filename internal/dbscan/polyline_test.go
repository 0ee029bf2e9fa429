package dbscan

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/simplify"
)

func lineTraj(t *testing.T, x0, y0, dx, dy float64, t0, n model.Tick, jitter func(i model.Tick) (float64, float64)) *model.Trajectory {
	t.Helper()
	samples := make([]model.Sample, 0, n)
	for i := model.Tick(0); i < n; i++ {
		jx, jy := 0.0, 0.0
		if jitter != nil {
			jx, jy = jitter(i)
		}
		samples = append(samples, model.Sample{
			T: t0 + i,
			P: geom.Pt(x0+dx*float64(i)+jx, y0+dy*float64(i)+jy),
		})
	}
	tr, err := model.NewTrajectory("", samples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func polyOf(st *simplify.Trajectory) Polyline {
	return NewPolyline(st.Object, st.Segments)
}

// overlapping reports whether two segments' closed tick intervals
// intersect.
func overlapping(sa, sb *simplify.Segment) bool {
	return sa.StartTick() <= sb.EndTick() && sb.StartTick() <= sa.EndTick()
}

// Omega is ω(o'q, o'i) (Section 5.2) by brute force: the minimum over every
// pair of segments whose tick intervals overlap of
// dist(l'q, l'i) − δ(l'q) − δ(l'i), +Inf when no pair shares a tick. Two
// objects can be within e of each other at some shared tick only if ω ≤ e.
func Omega(a, b Polyline, p PolylineDistanceParams) float64 {
	best := math.Inf(1)
	for i := range a.Segs {
		for j := range b.Segs {
			sa, sb := &a.Segs[i], &b.Segs[j]
			if overlapping(sa, sb) {
				best = min(best, p.dist(sa, sb)-p.tol(sa)-p.tol(sb))
			}
		}
	}
	return best
}

// bruteWithin is the filter's neighborhood predicate by brute force: some
// pair of time-overlapping segments passes dist ≤ e + δ + δ, in the
// comparison form withinBound uses.
func bruteWithin(a, b *Polyline, p *PolylineDistanceParams) bool {
	for i := range a.Segs {
		for j := range b.Segs {
			sa, sb := &a.Segs[i], &b.Segs[j]
			if overlapping(sa, sb) && p.dist(sa, sb) <= p.Eps+(p.tol(sa)+p.tol(sb)) {
				return true
			}
		}
	}
	return false
}

func TestNewPolylineAggregates(t *testing.T) {
	tr := lineTraj(t, 0, 0, 1, 0, 5, 10, func(i model.Tick) (float64, float64) {
		if i == 4 {
			return 0, 3 // a bump that survives simplification bounds
		}
		return 0, 0
	})
	st := simplify.Simplify(tr, 1.0, simplify.DP)
	p := polyOf(st)
	if p.T0 != 5 || p.T1 != 14 {
		t.Errorf("time span = [%d,%d]", p.T0, p.T1)
	}
	if p.MaxTol > 1.0+1e-9 {
		t.Errorf("MaxTol = %g exceeds δ", p.MaxTol)
	}
	if b := p.Bounds; b.ExtendPoint(geom.Pt(0, 0)) != b || b.ExtendPoint(geom.Pt(9, 0)) != b {
		t.Errorf("Bounds = %v", p.Bounds)
	}
}

func TestOmegaDisjointTimeIsInf(t *testing.T) {
	a := polyOf(simplify.Simplify(lineTraj(t, 0, 0, 1, 0, 0, 5, nil), 0.5, simplify.DP))
	b := polyOf(simplify.Simplify(lineTraj(t, 0, 0, 1, 0, 100, 5, nil), 0.5, simplify.DP))
	p := PolylineDistanceParams{Eps: 10, Bound: BoundDLL}
	if w := Omega(a, b, p); !math.IsInf(w, 1) {
		t.Errorf("Omega with disjoint times = %g, want +Inf", w)
	}
	if withinBound(&a, &b, &p) {
		t.Error("withinBound with disjoint times must be false")
	}
}

func TestOmegaParallelTracks(t *testing.T) {
	// Two straight parallel tracks 3 apart, same time span, δ small.
	a := polyOf(simplify.Simplify(lineTraj(t, 0, 0, 1, 0, 0, 10, nil), 0.1, simplify.DP))
	b := polyOf(simplify.Simplify(lineTraj(t, 0, 3, 1, 0, 0, 10, nil), 0.1, simplify.DP))
	p := PolylineDistanceParams{Eps: 1, Bound: BoundDLL}
	w := Omega(a, b, p)
	// Straight lines simplify to single segments with zero tolerance, so
	// ω = DLL = 3 exactly.
	if math.Abs(w-3) > 1e-9 {
		t.Errorf("Omega = %g, want 3", w)
	}
	if withinBound(&a, &b, &p) {
		t.Error("withinBound at gap 3 with e=1 must be false")
	}
	p.Eps = 3
	if !withinBound(&a, &b, &p) {
		t.Error("withinBound at gap 3 with e=3 must be true")
	}
}

func TestDStarBoundTighterThanDLL(t *testing.T) {
	// A follower on the same path two ticks behind: spatial segments overlap
	// (DLL = 0) but the synchronous distance is 2 throughout.
	a := polyOf(simplify.Simplify(lineTraj(t, 0, 0, 1, 0, 0, 20, nil), 0.1, simplify.DPStar))
	b := polyOf(simplify.Simplify(lineTraj(t, -2, 0, 1, 0, 0, 20, nil), 0.1, simplify.DPStar))
	dll := PolylineDistanceParams{Eps: 1, Bound: BoundDLL}
	dstar := PolylineDistanceParams{Eps: 1, Bound: BoundDStar}
	if !withinBound(&a, &b, &dll) {
		t.Error("DLL bound should (loosely) accept the follower pair")
	}
	if withinBound(&a, &b, &dstar) {
		t.Error("D* bound should reject the follower pair at e=1")
	}
	wd := Omega(a, b, dstar)
	if math.Abs(wd-2) > 1e-9 {
		t.Errorf("D* omega = %g, want 2", wd)
	}
}

func TestGlobalToleranceLooserThanActual(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	jitter := func(model.Tick) (float64, float64) { return r.Float64() - 0.5, r.Float64() - 0.5 }
	a := polyOf(simplify.Simplify(lineTraj(t, 0, 0, 1, 0, 0, 30, jitter), 2, simplify.DP))
	b := polyOf(simplify.Simplify(lineTraj(t, 0, 6, 1, 0, 0, 30, jitter), 2, simplify.DP))
	actual := PolylineDistanceParams{Eps: 1, Bound: BoundDLL, Tolerance: ActualTolerance}
	global := PolylineDistanceParams{Eps: 1, Bound: BoundDLL, Tolerance: GlobalTolerance, GlobalDelta: 2}
	// ω under the global δ is smaller by construction (bigger slack).
	if Omega(a, b, global) > Omega(a, b, actual)+1e-12 {
		t.Error("global-tolerance omega should be ≤ actual-tolerance omega")
	}
	if withinBound(&a, &b, &actual) && !withinBound(&a, &b, &global) {
		t.Error("anything accepted under actual tolerance must be accepted under global")
	}
}

// componentLabels flattens PolylineComponents — TRAJ-DBSCAN as the CuTS
// filter runs it (Algorithm 2, line 11) — to one label per polyline, Noise
// for the unclustered, checking on the way that box pruning, on or off,
// yields the same components.
func componentLabels(t *testing.T, polys []Polyline, minPts int, p PolylineDistanceParams) []int {
	t.Helper()
	comps := new(PolylineClusterer).Components(polys, minPts, p)
	p.NoBoxPrune = !p.NoBoxPrune
	if other := new(PolylineClusterer).Components(polys, minPts, p); !reflect.DeepEqual(comps, other) {
		t.Fatalf("components depend on box pruning: %v vs %v", comps, other)
	}
	labels := make([]int, len(polys))
	for i := range labels {
		labels[i] = Noise
	}
	for ci, comp := range comps {
		for _, i := range comp {
			labels[i] = ci
		}
	}
	return labels
}

func TestClusterPolylinesTwoGroups(t *testing.T) {
	// Objects 0,1 travel together near y=0; objects 2,3 near y=100.
	var polys []Polyline
	for i, y := range []float64{0, 1, 100, 101} {
		tr := lineTraj(t, 0, y, 1, 0, 0, 20, nil)
		tr.ID = i
		st := simplify.Simplify(tr, 0.5, simplify.DP)
		polys = append(polys, polyOf(st))
	}
	labels := componentLabels(t, polys, 2, PolylineDistanceParams{Eps: 2, Bound: BoundDLL})
	if numClusters(labels) != 2 {
		t.Fatalf("want 2 clusters, labels = %v", labels)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] {
		t.Errorf("grouping wrong: %v", labels)
	}
}

func TestClusterPolylinesNoise(t *testing.T) {
	var polys []Polyline
	for i, y := range []float64{0, 1, 500} {
		tr := lineTraj(t, 0, y, 1, 0, 0, 10, nil)
		tr.ID = i
		polys = append(polys, polyOf(simplify.Simplify(tr, 0.5, simplify.DP)))
	}
	labels := componentLabels(t, polys, 2, PolylineDistanceParams{Eps: 2, Bound: BoundDLL})
	if labels[2] != Noise {
		t.Errorf("far polyline should be noise: %v", labels)
	}
}

func TestClusterPolylinesZeroEps(t *testing.T) {
	// e = 0 with δ = 0 must not panic (cell-size floor) and only coincident
	// tracks cluster.
	var polys []Polyline
	for i, y := range []float64{0, 0, 5} {
		tr := lineTraj(t, 0, y, 1, 0, 0, 5, nil)
		tr.ID = i
		polys = append(polys, polyOf(simplify.Simplify(tr, 0, simplify.DP)))
	}
	labels := componentLabels(t, polys, 2, PolylineDistanceParams{Eps: 0, Bound: BoundDLL})
	if labels[0] != labels[1] || labels[0] == Noise {
		t.Errorf("coincident tracks should cluster at e=0: %v", labels)
	}
	if labels[2] != Noise {
		t.Errorf("separate track should be noise: %v", labels)
	}
}

// randomWalkTraj builds a random walk of n samples, with occasional
// sampling gaps, from a start drawn in [0, extent)².
func randomWalkTraj(r *rand.Rand, id int, n int, extent float64) *model.Trajectory {
	samples := make([]model.Sample, 0, n)
	x, y := r.Float64()*extent, r.Float64()*extent
	tick := model.Tick(r.Intn(3))
	for i := 0; i < n; i++ {
		x += r.Float64()*4 - 2
		y += r.Float64()*4 - 2
		samples = append(samples, model.Sample{T: tick, P: geom.Pt(x, y)})
		tick += model.Tick(1 + r.Intn(2))
	}
	tr, _ := model.NewTrajectory("", samples)
	tr.ID = id
	return tr
}

// The no-false-dismissal property behind Lemmas 1 and 3: whenever two
// objects' (interpolated) positions are within e at some shared tick, their
// simplified polylines must pass the filter's neighborhood bound.
func TestPropLemmaBoundsNeverDismiss(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for iter := 0; iter < 80; iter++ {
		a := randomWalkTraj(r, 0, 4+r.Intn(30), 30)
		b := randomWalkTraj(r, 1, 4+r.Intn(30), 30)
		delta := r.Float64() * 3
		e := 0.5 + r.Float64()*4
		configs := []struct {
			method simplify.Method
			bound  BoundKind
		}{
			{simplify.DP, BoundDLL},
			{simplify.DPPlus, BoundDLL},
			{simplify.DPStar, BoundDStar},
		}
		for _, cfg := range configs {
			pa := polyOf(simplify.Simplify(a, delta, cfg.method))
			pb := polyOf(simplify.Simplify(b, delta, cfg.method))
			params := PolylineDistanceParams{Eps: e, Bound: cfg.bound}
			accepted := withinBound(&pa, &pb, &params)
			// Scan every shared tick for a true close encounter.
			lo := a.Start()
			if b.Start() > lo {
				lo = b.Start()
			}
			hi := a.End()
			if b.End() < hi {
				hi = b.End()
			}
			for tick := lo; tick <= hi; tick++ {
				qa, ok1 := a.LocationAt(tick)
				qb, ok2 := b.LocationAt(tick)
				if !ok1 || !ok2 {
					continue
				}
				if geom.D(qa, qb) <= e && !accepted {
					t.Fatalf("%v/%v: objects within e=%g at tick %d but filter bound dismissed the pair (δ=%g)",
						cfg.method, cfg.bound, e, tick, delta)
				}
			}
			// And the global-tolerance variant must accept at least as much.
			if accepted {
				gparams := params
				gparams.Tolerance = GlobalTolerance
				gparams.GlobalDelta = delta
				if !withinBound(&pa, &pb, &gparams) {
					t.Fatalf("%v: global tolerance rejected a pair accepted under actual tolerance", cfg.method)
				}
			}
		}
	}
}

// Property: PolylineClusterer.Adjacency — the x sweep, with the Lemma-2
// box pruning on and off, on one clusterer reused from set to set — finds
// exactly the neighborhoods a brute-force scan over every pair of polylines
// and every pair of their time-overlapping segments finds, so the
// components the CuTS filter chains are the brute-force components. The
// sets alternate DLL over DP-simplified polylines with D* over DP*-simplified
// ones clipped to a time window (as the CuTS* filter clips them), take
// actual or global tolerances, and every third one is a partition of 100 to
// 200 polylines spread wide enough that most have a few neighbors.
func TestPropClusterPolylinesMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	var pc PolylineClusterer
	for iter := 0; iter < 80; iter++ {
		n, extent := 2+r.Intn(25), 30.0
		if iter%3 == 2 {
			n = 100 + r.Intn(101)
			extent = 10 * math.Sqrt(float64(n))
		}
		method, bound := simplify.DP, BoundDLL
		if iter%2 == 1 {
			method, bound = simplify.DPStar, BoundDStar
		}
		delta := r.Float64() * 2
		w0 := model.Tick(r.Intn(10))
		w1 := w0 + model.Tick(r.Intn(20))
		var polys []Polyline
		for i := 0; i < n; i++ {
			segs := simplify.Simplify(randomWalkTraj(r, i, 3+r.Intn(20), extent), delta, method).Segments
			if bound == BoundDStar {
				var clipped []simplify.Segment
				for _, sg := range segs {
					if sg.StartTick() <= w1 && w0 <= sg.EndTick() {
						clipped = append(clipped, sg.ClipTime(w0, w1))
					}
				}
				if segs = clipped; len(segs) == 0 {
					continue
				}
			}
			polys = append(polys, NewPolyline(i, segs))
		}
		n = len(polys)
		params := PolylineDistanceParams{Eps: 0.5 + r.Float64()*4, Bound: bound}
		if r.Intn(2) == 0 {
			params.Tolerance, params.GlobalDelta = GlobalTolerance, delta
		}
		minPts := 1 + r.Intn(4)
		want := buildAdjacency(n, minPts, func(i int, buf []int) []int {
			for j := 0; j < n; j++ {
				if i == j || bruteWithin(&polys[i], &polys[j], &params) {
					buf = append(buf, j)
				}
			}
			return buf
		})
		for _, noBoxPrune := range []bool{false, true} {
			params.NoBoxPrune = noBoxPrune
			got := pc.Adjacency(polys, minPts, params)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d, %v, NoBoxPrune=%v: adjacency mismatch: sweep=%v brute=%v", iter, params, noBoxPrune, got, want)
			}
			if gc, wc := pc.Components(polys, minPts, params), clusterComponents(want); !reflect.DeepEqual(gc, wc) {
				t.Fatalf("iter %d, %v, NoBoxPrune=%v: component mismatch: sweep=%v brute=%v", iter, params, noBoxPrune, gc, wc)
			}
		}
	}
}
