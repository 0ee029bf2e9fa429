package simplify

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

func TestClipTimeBasics(t *testing.T) {
	tr := mustTraj(t, s(0, 0, 0), s(10, 10, 0))
	st := Simplify(tr, 0, DPStar)
	sg := st.Segments[0]

	c := sg.ClipTime(2, 7)
	if c.T0 != 2 || c.T1 != 7 {
		t.Fatalf("clipped interval [%g,%g]", c.T0, c.T1)
	}
	if c.A != geom.Pt(2, 0) || c.B != geom.Pt(7, 0) {
		t.Errorf("clipped endpoints %v %v", c.A, c.B)
	}
	if c.Tolerance != sg.Tolerance {
		t.Error("clip must not change the tolerance")
	}
	// Clipping beyond the segment leaves it unchanged.
	full := sg.ClipTime(-5, 100)
	if full.T0 != 0 || full.T1 != 10 || full.A != sg.A || full.B != sg.B {
		t.Errorf("over-wide clip changed the segment: %+v", full)
	}
	// Single-instant clip degenerates to a point.
	instant := sg.ClipTime(4, 4)
	if instant.T0 != 4 || instant.T1 != 4 || instant.A != geom.Pt(4, 0) || instant.A != instant.B {
		t.Errorf("instant clip: %+v", instant)
	}
}

// The soundness property behind CuTS*'s clipping: for every tick inside the
// clipped window, the original (or interpolated) position stays within the
// segment's DP* tolerance of the clipped segment's synchronous position.
func TestPropClipPreservesDPStarTolerance(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	for iter := 0; iter < 80; iter++ {
		tr := randomTraj(r, 4+r.Intn(40))
		delta := r.Float64() * 4
		st := Simplify(tr, delta, DPStar)
		for _, sg := range st.Segments {
			if sg.EndTick() <= sg.StartTick() {
				continue
			}
			// Random clip window intersecting the segment.
			span := sg.EndTick() - sg.StartTick()
			lo := sg.StartTick() + model.Tick(r.Int63n(int64(span)+1))
			hi := lo + model.Tick(r.Int63n(int64(sg.EndTick()-lo)+1))
			c := sg.ClipTime(lo, hi)
			for tick := lo; tick <= hi; tick++ {
				p, ok := tr.LocationAt(tick)
				if !ok {
					t.Fatalf("position missing inside segment at %d", tick)
				}
				if d := geom.D(p, c.PosAt(float64(tick))); d > sg.Tolerance+1e-9 {
					t.Fatalf("clip broke the synchronous tolerance: dev %g > δ(l')=%g at tick %d",
						d, sg.Tolerance, tick)
				}
			}
		}
	}
}

// The split-deviation profile must behave for the middle-biased and
// synchronous variants too (ComputeDelta uses DP, but the profile is
// exposed for all methods).
func TestSplitDistancesAllMethods(t *testing.T) {
	tr := mustTraj(t,
		s(0, 0, 0), s(1, 1, 2), s(2, 2, -1), s(3, 3, 3), s(4, 4, 0), s(5, 5, 1),
	)
	for _, m := range []Method{DP, DPPlus, DPStar} {
		dists := AppendSplitDistances(nil, tr, m, math.Inf(1))
		if len(dists) == 0 {
			t.Errorf("%v: empty profile", m)
			continue
		}
		for _, d := range dists {
			if d < 0 {
				t.Errorf("%v: negative deviation %g", m, d)
			}
		}
	}
}
