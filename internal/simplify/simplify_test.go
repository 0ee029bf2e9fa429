package simplify

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

func s(t model.Tick, x, y float64) model.Sample { return model.Sample{T: t, P: geom.Pt(x, y)} }

func mustTraj(t *testing.T, samples ...model.Sample) *model.Trajectory {
	t.Helper()
	tr, err := model.NewTrajectory("t", samples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// segmentCovering returns the index of a segment whose time interval covers
// tick t, or -1. Boundary ticks belong to the earlier segment.
func segmentCovering(st *Trajectory, t model.Tick) int {
	if lo, hi := st.SegmentsOverlapping(t, t); lo < hi {
		return lo
	}
	return -1
}

// synchronousDeviation is the DP* error of sample idx against the covering
// simplified segment: distance to the segment position at the same tick.
func synchronousDeviation(st *Trajectory, idx int) float64 {
	sm := st.Orig.Samples[idx]
	si := segmentCovering(st, sm.T)
	if si < 0 {
		return math.Inf(1)
	}
	return geom.D(sm.P, st.Segments[si].PosAt(float64(sm.T)))
}

// segmentDeviation is the DP/DP+ error: DPL to the covering segment.
func segmentDeviation(st *Trajectory, idx int) float64 {
	sm := st.Orig.Samples[idx]
	si := segmentCovering(st, sm.T)
	if si < 0 {
		return math.Inf(1)
	}
	return geom.DPL(sm.P, st.Segments[si].Segment)
}

func TestSimplifyKeepsEndpoints(t *testing.T) {
	tr := mustTraj(t, s(0, 0, 0), s(1, 1, 5), s(2, 2, -5), s(3, 3, 0))
	for _, m := range []Method{DP, DPPlus, DPStar} {
		st := Simplify(tr, 100, m)
		if st.Keep[0] != 0 || st.Keep[len(st.Keep)-1] != tr.Len()-1 {
			t.Errorf("%v: endpoints not kept: %v", m, st.Keep)
		}
		if st.Len() != 2 {
			t.Errorf("%v: huge delta should keep exactly endpoints, got %v", m, st.Keep)
		}
		if len(st.Segments) != st.Len()-1 {
			t.Errorf("%v: segments/keep mismatch", m)
		}
	}
}

func TestSimplifyZeroDeltaKeepsNonCollinear(t *testing.T) {
	// A zig-zag: no interior point is collinear, so δ=0 keeps everything.
	tr := mustTraj(t, s(0, 0, 0), s(1, 1, 1), s(2, 2, 0), s(3, 3, 1), s(4, 4, 0))
	for _, m := range []Method{DP, DPPlus, DPStar} {
		st := Simplify(tr, 0, m)
		if st.Len() != 5 {
			t.Errorf("%v: δ=0 kept %d of 5 points (%v)", m, st.Len(), st.Keep)
		}
		if st.Tolerance != 0 {
			t.Errorf("%v: δ=0 tolerance = %g", m, st.Tolerance)
		}
	}
}

func TestSimplifyCollinearCollapses(t *testing.T) {
	// Perfectly collinear and uniformly timed: everything collapses even at
	// δ=0, for all three methods (DP* included, because the time ratio
	// matches the spatial ratio here).
	tr := mustTraj(t, s(0, 0, 0), s(1, 1, 1), s(2, 2, 2), s(3, 3, 3))
	for _, m := range []Method{DP, DPPlus, DPStar} {
		st := Simplify(tr, 0, m)
		if st.Len() != 2 {
			t.Errorf("%v: collinear kept %v", m, st.Keep)
		}
	}
}

func TestDPStarKeepsTimeSkewedPoint(t *testing.T) {
	// Figure 3's scenario: p2 is spatially on the chord (DP drops it) but at
	// its tick the chord position is far away (DP* keeps it).
	tr := mustTraj(t, s(1, 0, 0), s(2, 1, 0), s(3, 10, 0))
	dp := Simplify(tr, 1, DP)
	if dp.Len() != 2 {
		t.Errorf("DP should drop the collinear point, kept %v", dp.Keep)
	}
	dpstar := Simplify(tr, 1, DPStar)
	if dpstar.Len() != 3 {
		t.Errorf("DP* should keep the time-skewed point, kept %v", dpstar.Keep)
	}
	// With a tolerance above the synchronous error (4), DP* drops it too.
	loose := Simplify(tr, 5, DPStar)
	if loose.Len() != 2 {
		t.Errorf("DP* with δ=5 kept %v", loose.Keep)
	}
}

func TestFigure10DPVersusDPPlus(t *testing.T) {
	// Figure 10: seven points; p4 (index 3) and p6 (index 5) exceed δ=1.
	// DP splits at the farthest (p6) and ends with {p1,p6,p7}; DP+ splits at
	// the one closest to the middle (p4) and ends with {p1,p4,p6,p7}.
	tr := mustTraj(t,
		s(0, 0, 0),
		s(1, 1, 0.3),
		s(2, 2, 0.6),
		s(3, 3, 1.2), // p4
		s(4, 4, 0.5),
		s(5, 5, 1.5), // p6
		s(6, 6, 0),
	)
	dp := Simplify(tr, 1, DP)
	if got, want := dp.Keep, []int{0, 5, 6}; !equalInts(got, want) {
		t.Errorf("DP keep = %v, want %v", got, want)
	}
	dpp := Simplify(tr, 1, DPPlus)
	if got, want := dpp.Keep, []int{0, 3, 5, 6}; !equalInts(got, want) {
		t.Errorf("DP+ keep = %v, want %v", got, want)
	}
	// The paper's Section 6.1 claim is about the chosen split point's
	// deviation at each division step: DP+ picks δ4 (=1.2) where DP picks
	// δ6 (=1.5), i.e., the split deviation of DP+ is ≤ DP's.
	devDP := refDeviation(tr.Samples, 0, 6, 5, DP)      // p6 against p1p7
	devDPP := refDeviation(tr.Samples, 0, 6, 3, DPPlus) // p4 against p1p7
	if devDPP > devDP {
		t.Errorf("DP+ split deviation %g > DP split deviation %g", devDPP, devDP)
	}
	// And DP's reduction is at least as strong as DP+'s (Figure 15(a)).
	if dp.Len() > dpp.Len() {
		t.Errorf("DP kept %d points, DP+ kept %d; DP should reduce at least as much",
			dp.Len(), dpp.Len())
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSingleSampleTrajectory(t *testing.T) {
	tr := mustTraj(t, s(7, 3, 4))
	st := Simplify(tr, 1, DP)
	if st.Len() != 1 || len(st.Segments) != 1 {
		t.Fatalf("single-sample: keep=%v segments=%d", st.Keep, len(st.Segments))
	}
	sg := st.Segments[0]
	if sg.T0 != 7 || sg.T1 != 7 || sg.A != geom.Pt(3, 4) {
		t.Errorf("degenerate segment = %+v", sg)
	}
	if segmentCovering(st, 7) != 0 {
		t.Error("segmentCovering(7) failed on degenerate segment")
	}
	if segmentCovering(st, 8) != -1 {
		t.Error("segmentCovering(8) should miss")
	}
}

// A trajectory without samples (one built by hand: NewTrajectory refuses
// it) simplifies to nothing under every method, and profiles nothing.
func TestEmptyTrajectory(t *testing.T) {
	tr := &model.Trajectory{Label: "x"}
	for _, m := range []Method{DP, DPPlus, DPStar} {
		st := Simplify(tr, 1, m)
		if st.Keep != nil || st.Segments != nil || st.Tolerance != 0 || st.Orig != tr || st.Method != m {
			t.Errorf("%v: %+v", m, st)
		}
		if got := AppendSplitDistances(nil, tr, m, math.Inf(1)); got != nil {
			t.Errorf("%v: split distances %v", m, got)
		}
	}
}

func TestTwoSampleTrajectory(t *testing.T) {
	tr := mustTraj(t, s(0, 0, 0), s(9, 3, 4))
	st := Simplify(tr, 0, DPStar)
	if st.Len() != 2 || len(st.Segments) != 1 || st.Segments[0].Tolerance != 0 {
		t.Fatalf("two-sample: %+v", st)
	}
}

func TestSegmentCoveringAndOverlap(t *testing.T) {
	// Force three segments by using δ=0 on a zig-zag with 4 points.
	tr := mustTraj(t, s(0, 0, 0), s(3, 1, 2), s(7, 2, 0), s(12, 3, 2))
	st := Simplify(tr, 0, DP)
	if len(st.Segments) != 3 {
		t.Fatalf("want 3 segments, got %d", len(st.Segments))
	}
	cases := []struct {
		t    model.Tick
		want int
	}{
		{0, 0}, {2, 0}, {3, 0}, {4, 1}, {7, 1}, {8, 2}, {12, 2}, {13, -1}, {-1, -1},
	}
	for _, c := range cases {
		if got := segmentCovering(st, c.t); got != c.want {
			t.Errorf("segmentCovering(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	lo, hi := st.SegmentsOverlapping(2, 8)
	if lo != 0 || hi != 3 {
		t.Errorf("SegmentsOverlapping(2,8) = [%d,%d)", lo, hi)
	}
	lo, hi = st.SegmentsOverlapping(4, 6)
	if lo != 1 || hi != 2 {
		t.Errorf("SegmentsOverlapping(4,6) = [%d,%d)", lo, hi)
	}
	lo, hi = st.SegmentsOverlapping(13, 20)
	if lo != hi {
		t.Errorf("SegmentsOverlapping outside = [%d,%d), want empty", lo, hi)
	}
}

// randomTraj builds a random trajectory with occasional sampling gaps.
func randomTraj(r *rand.Rand, n int) *model.Trajectory {
	samples := make([]model.Sample, 0, n)
	tick := model.Tick(0)
	x, y := 0.0, 0.0
	for i := 0; i < n; i++ {
		x += r.Float64()*4 - 2
		y += r.Float64()*4 - 2
		samples = append(samples, model.Sample{T: tick, P: geom.Pt(x, y)})
		tick += model.Tick(1 + r.Intn(3))
	}
	tr, err := model.NewTrajectory("r", samples)
	if err != nil {
		panic(err)
	}
	return tr
}

// The central correctness property (Definition 4 / Section 5.1): every
// original sample deviates from its covering simplified segment by at most
// the requested δ, at most the segment's recorded actual tolerance, and the
// recorded tolerance never exceeds δ.
func TestPropToleranceGuarantee(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for iter := 0; iter < 120; iter++ {
		tr := randomTraj(r, 2+r.Intn(60))
		delta := r.Float64() * 6
		for _, m := range []Method{DP, DPPlus, DPStar} {
			st := Simplify(tr, delta, m)
			if st.Tolerance > delta+1e-9 {
				t.Fatalf("%v: trajectory tolerance %g exceeds δ=%g", m, st.Tolerance, delta)
			}
			for _, sg := range st.Segments {
				if sg.Tolerance > delta+1e-9 {
					t.Fatalf("%v: segment tolerance %g exceeds δ=%g", m, sg.Tolerance, delta)
				}
			}
			for idx := range tr.Samples {
				var dev float64
				if m == DPStar {
					dev = synchronousDeviation(st, idx)
				} else {
					dev = segmentDeviation(st, idx)
				}
				if dev > delta+1e-9 {
					t.Fatalf("%v: sample %d deviates %g > δ=%g", m, idx, dev, delta)
				}
				si := segmentCovering(st, tr.Samples[idx].T)
				if dev > st.Segments[si].Tolerance+1e-9 {
					t.Fatalf("%v: sample %d deviates %g > recorded segment tolerance %g",
						m, idx, dev, st.Segments[si].Tolerance)
				}
			}
		}
	}
}

// Property: the recorded actual tolerance is exactly the max deviation of
// the samples inside each segment (not just an upper bound).
func TestPropActualToleranceIsTight(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for iter := 0; iter < 80; iter++ {
		tr := randomTraj(r, 3+r.Intn(40))
		delta := r.Float64() * 5
		for _, m := range []Method{DP, DPPlus, DPStar} {
			st := Simplify(tr, delta, m)
			for _, sg := range st.Segments {
				maxDev := 0.0
				for idx := sg.StartIdx + 1; idx < sg.EndIdx; idx++ {
					var dev float64
					if m == DPStar {
						dev = geom.D(tr.Samples[idx].P, sg.PosAt(float64(tr.Samples[idx].T)))
					} else {
						dev = geom.DPL(tr.Samples[idx].P, sg.Segment)
					}
					if dev > maxDev {
						maxDev = dev
					}
				}
				if math.Abs(maxDev-sg.Tolerance) > 1e-9 {
					t.Fatalf("%v: recorded tolerance %g, recomputed %g", m, sg.Tolerance, maxDev)
				}
			}
		}
	}
}

// Property: kept indices are strictly ascending, start at 0, end at n−1, and
// segments tile the trajectory's sample range.
func TestPropKeepWellFormed(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for iter := 0; iter < 80; iter++ {
		tr := randomTraj(r, 1+r.Intn(50))
		for _, m := range []Method{DP, DPPlus, DPStar} {
			st := Simplify(tr, r.Float64()*8, m)
			if st.Keep[0] != 0 || st.Keep[len(st.Keep)-1] != tr.Len()-1 {
				t.Fatalf("%v: keep endpoints %v", m, st.Keep)
			}
			for i := 1; i < len(st.Keep); i++ {
				if st.Keep[i] <= st.Keep[i-1] {
					t.Fatalf("%v: keep not ascending: %v", m, st.Keep)
				}
			}
			if tr.Len() > 1 {
				for i, sg := range st.Segments {
					if sg.StartIdx != st.Keep[i] || sg.EndIdx != st.Keep[i+1] {
						t.Fatalf("%v: segment %d range [%d,%d] vs keep %v",
							m, i, sg.StartIdx, sg.EndIdx, st.Keep)
					}
				}
			}
		}
	}
}

// Property: larger δ never keeps more points (monotone reduction) for DP and
// DP*. (DP+'s middle-biased split is not strictly monotone in theory, so it
// is exempted.)
func TestPropMonotoneReduction(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for iter := 0; iter < 60; iter++ {
		tr := randomTraj(r, 5+r.Intn(50))
		for _, m := range []Method{DP, DPStar} {
			prev := -1
			for _, delta := range []float64{0.1, 0.5, 1, 2, 4, 8, 16} {
				n := Simplify(tr, delta, m).Len()
				if prev >= 0 && n > prev {
					// Farthest-point DP is not formally monotone either, but
					// violations are vanishingly rare on random walks; treat
					// a big jump as a bug, tolerate ±1 wobble.
					if n > prev+1 {
						t.Fatalf("%v: reduction regressed: δ=%g kept %d, previous %d", m, delta, n, prev)
					}
				}
				prev = n
			}
		}
	}
}

func TestSimplifyAll(t *testing.T) {
	db := model.NewDB()
	db.Add(mustTraj(t, s(0, 0, 0), s(1, 1, 1), s(2, 2, 0)))
	db.Add(mustTraj(t, s(0, 5, 5), s(1, 6, 6)))
	sts, err := SimplifyAllWorkers(context.Background(), db, 0.5, DP, 1)
	if err != nil || len(sts) != 2 {
		t.Fatalf("SimplifyAllWorkers returned %d, %v", len(sts), err)
	}
	for id, st := range sts {
		if st.Object != id {
			t.Errorf("object id mismatch: %d vs %d", st.Object, id)
		}
	}
}

func TestSplitDistances(t *testing.T) {
	// Zig-zag with distinct amplitudes: δ=0 DP splits at every interior
	// point, and the profile is appended after what dst holds.
	tr := mustTraj(t, s(0, 0, 0), s(1, 1, 3), s(2, 2, 0), s(3, 3, 1), s(4, 4, 0))
	dists := AppendSplitDistances([]float64{-1}, tr, DP, math.Inf(1))
	if len(dists) != 4 || dists[0] != -1 {
		t.Fatalf("split distances after [-1]: %v, want -1 and one per interior point", dists)
	}
	// Short trajectories yield nothing.
	if got := AppendSplitDistances(nil, mustTraj(t, s(0, 0, 0), s(1, 1, 1)), DP, math.Inf(1)); got != nil {
		t.Errorf("2-point trajectory: %v", got)
	}
	// Collinear: every split distance is 0… in fact no split happens at all.
	col := mustTraj(t, s(0, 0, 0), s(1, 1, 1), s(2, 2, 2))
	if got := AppendSplitDistances(nil, col, DP, math.Inf(1)); len(got) != 0 {
		t.Errorf("collinear split distances: %v", got)
	}
}

func TestMethodString(t *testing.T) {
	if DP.String() != "DP" || DPPlus.String() != "DP+" || DPStar.String() != "DP*" {
		t.Error("method names wrong")
	}
	if Method(9).String() == "" {
		t.Error("unknown method should still stringify")
	}
}
