package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func seg(a, b Point) Segment { return Segment{A: a, B: b} }

// rectOf is the bounding box of pts: EmptyRect extended by each.
func rectOf(pts ...Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.ExtendPoint(p)
	}
	return r
}

func almostEqual(a, b float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

func TestD(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(0, 0), 0},
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(-1, -1), Pt(2, 3), 5},
		{Pt(1.5, 2.5), Pt(1.5, 2.5), 0},
		{Pt(0, 0), Pt(1, 0), 1},
		{Pt(0, 0), Pt(0, -2), 2},
	}
	for _, c := range cases {
		if got := D(c.p, c.q); !almostEqual(got, c.want) {
			t.Errorf("D(%v,%v) = %g, want %g", c.p, c.q, got, c.want)
		}
		if got := D2(c.p, c.q); !almostEqual(got, c.want*c.want) {
			t.Errorf("D2(%v,%v) = %g, want %g", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestVectorOps(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); got != -4-6 {
		t.Errorf("Cross = %v", got)
	}
	if got := Pt(3, 4).Norm(); !almostEqual(got, 5) {
		t.Errorf("Norm = %v", got)
	}
	if got := Pt(3, 4).Norm2(); !almostEqual(got, 25) {
		t.Errorf("Norm2 = %v", got)
	}
	if got := p.Lerp(q, 0.5); got != Pt(2, -1) {
		t.Errorf("Lerp = %v", got)
	}
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestDPL(t *testing.T) {
	l := seg(Pt(0, 0), Pt(10, 0))
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(5, 3), 3},        // above the middle: perpendicular distance
		{Pt(-3, 4), 5},       // before A: distance to A
		{Pt(13, 4), 5},       // after B: distance to B
		{Pt(0, 0), 0},        // on endpoint
		{Pt(7, 0), 0},        // on the segment
		{Pt(10, -2), 2},      // below endpoint B
		{Pt(5, -1.25), 1.25}, // below the middle
	}
	for _, c := range cases {
		if got := DPL(c.p, l); !almostEqual(got, c.want) {
			t.Errorf("DPL(%v, %v) = %g, want %g", c.p, l, got, c.want)
		}
	}
}

func TestDPLDegenerateSegment(t *testing.T) {
	l := seg(Pt(2, 2), Pt(2, 2))
	if got := DPL(Pt(5, 6), l); !almostEqual(got, 5) {
		t.Errorf("DPL to degenerate segment = %g, want 5", got)
	}
}

func TestDLL(t *testing.T) {
	cases := []struct {
		a, b Segment
		want float64
	}{
		// Parallel horizontal segments, vertical gap 2.
		{seg(Pt(0, 0), Pt(10, 0)), seg(Pt(0, 2), Pt(10, 2)), 2},
		// Crossing segments.
		{seg(Pt(0, 0), Pt(10, 10)), seg(Pt(0, 10), Pt(10, 0)), 0},
		// Touching at an endpoint.
		{seg(Pt(0, 0), Pt(5, 5)), seg(Pt(5, 5), Pt(9, 0)), 0},
		// Collinear, disjoint: gap 3 along the x axis.
		{seg(Pt(0, 0), Pt(2, 0)), seg(Pt(5, 0), Pt(9, 0)), 3},
		// Collinear, overlapping.
		{seg(Pt(0, 0), Pt(5, 0)), seg(Pt(3, 0), Pt(9, 0)), 0},
		// Perpendicular, closest at endpoint-to-interior.
		{seg(Pt(0, 3), Pt(0, 10)), seg(Pt(-5, 0), Pt(5, 0)), 3},
		// Degenerate vs segment.
		{seg(Pt(4, 4), Pt(4, 4)), seg(Pt(0, 0), Pt(8, 0)), 4},
		// Two degenerate segments.
		{seg(Pt(0, 0), Pt(0, 0)), seg(Pt(3, 4), Pt(3, 4)), 5},
	}
	for _, c := range cases {
		if got := DLL(c.a, c.b); !almostEqual(got, c.want) {
			t.Errorf("DLL(%v, %v) = %g, want %g", c.a, c.b, got, c.want)
		}
		// Symmetry.
		if got := DLL(c.b, c.a); !almostEqual(got, c.want) {
			t.Errorf("DLL(%v, %v) = %g, want %g (symmetric)", c.b, c.a, got, c.want)
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := rectOf(Pt(1, 2), Pt(5, -3), Pt(3, 7))
	want := Rect{MinX: 1, MinY: -3, MaxX: 5, MaxY: 7}
	if r != want {
		t.Fatalf("rectOf = %v, want %v", r, want)
	}
	if r.IsEmpty() {
		t.Error("non-empty rect reported empty")
	}
	if !EmptyRect().IsEmpty() {
		t.Error("EmptyRect not empty")
	}
	if r.ExtendPoint(Pt(3, 0)) != r || r.ExtendPoint(Pt(0, 0)) == r {
		t.Error("ExtendPoint grows the rect for a point inside, or not for one outside")
	}
	if u := EmptyRect().Union(r); u != r {
		t.Errorf("Union with empty = %v", u)
	}
	if u := r.Union(EmptyRect()); u != r {
		t.Errorf("Union with empty (rhs) = %v", u)
	}
	s := rectOf(Pt(10, 10), Pt(12, 12))
	if got := r.Union(s); got != (Rect{1, -3, 12, 12}) {
		t.Errorf("Union = %v", got)
	}
}

func TestDmin(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	cases := []struct {
		b    Rect
		want float64
	}{
		{Rect{1, 1, 3, 3}, 0},                    // overlap
		{Rect{2, 2, 4, 4}, 0},                    // corner touch
		{Rect{5, 0, 7, 2}, 3},                    // gap along x only
		{Rect{0, 6, 2, 8}, 4},                    // gap along y only
		{Rect{5, 6, 7, 8}, 5},                    // diagonal gap (3,4,5)
		{Rect{-4, -3, -3, -2}, math.Hypot(3, 2)}, // diagonal on the other side
	}
	for _, c := range cases {
		if got := Dmin(a, c.b); !almostEqual(got, c.want) {
			t.Errorf("Dmin(%v,%v) = %g, want %g", a, c.b, got, c.want)
		}
		if got := Dmin(c.b, a); !almostEqual(got, c.want) {
			t.Errorf("Dmin symmetric (%v,%v) = %g, want %g", c.b, a, got, c.want)
		}
	}
	if got := Dmin(a, EmptyRect()); !math.IsInf(got, 1) {
		t.Errorf("Dmin with empty rect = %g, want +Inf", got)
	}
}

func TestSegmentHelpers(t *testing.T) {
	s := seg(Pt(0, 0), Pt(10, 0))
	if got := s.At(0.25); got != Pt(2.5, 0) {
		t.Errorf("At = %v", got)
	}
	if got := s.Bounds(); got != (Rect{0, 0, 10, 0}) {
		t.Errorf("Bounds = %v", got)
	}
	if f := s.ClosestFraction(Pt(-5, 3)); f != 0 {
		t.Errorf("ClosestFraction before A = %g", f)
	}
	if f := s.ClosestFraction(Pt(50, 3)); f != 1 {
		t.Errorf("ClosestFraction after B = %g", f)
	}
	if f := s.ClosestFraction(Pt(4, 9)); !almostEqual(f, 0.4) {
		t.Errorf("ClosestFraction interior = %g", f)
	}
}

// --- Property-based tests -------------------------------------------------

// boundedPoint produces points in a modest range so distances stay well
// within float64 precision.
func boundedPoint(r *rand.Rand) Point {
	return Pt(r.Float64()*2000-1000, r.Float64()*2000-1000)
}

func TestPropDistanceMetric(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		if !almostEqual(D(a, b), D(b, a)) {
			return false
		}
		if D(a, a) != 0 {
			return false
		}
		return D(a, c) <= D(a, b)+D(b, c)+eps*(1+D(a, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestPropDPLIsMinOverSamples(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		p := boundedPoint(r)
		l := seg(boundedPoint(r), boundedPoint(r))
		got := DPL(p, l)
		if got < 0 {
			t.Fatalf("negative distance")
		}
		// DPL lower-bounds the distance to any sampled point on the segment,
		// and the densely sampled minimum comes close to it.
		minSample := math.Inf(1)
		for f := 0.0; f <= 1.0; f += 1.0 / 256 {
			d := D(p, l.At(f))
			if d < got-1e-6 {
				t.Fatalf("DPL=%g exceeds sample distance %g for p=%v l=%v", got, d, p, l)
			}
			if d < minSample {
				minSample = d
			}
		}
		if got < minSample-D(l.A, l.B)/128 {
			t.Fatalf("DPL=%g implausibly below sampled min %g", got, minSample)
		}
	}
}

func TestPropDLLLowerBoundsPointPairs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		lu := seg(boundedPoint(r), boundedPoint(r))
		lv := seg(boundedPoint(r), boundedPoint(r))
		dll := DLL(lu, lv)
		for j := 0; j < 16; j++ {
			a := lu.At(r.Float64())
			b := lv.At(r.Float64())
			if d := D(a, b); d < dll-1e-6 {
				t.Fatalf("DLL=%g exceeds point pair distance %g (lu=%v lv=%v)", dll, d, lu, lv)
			}
		}
		// Endpoint distances are attainable, so DLL is at most the min of them.
		endpointMin := math.Min(
			math.Min(D(lu.A, lv.A), D(lu.A, lv.B)),
			math.Min(D(lu.B, lv.A), D(lu.B, lv.B)),
		)
		if dll > endpointMin+1e-9 {
			t.Fatalf("DLL=%g exceeds endpoint minimum %g", dll, endpointMin)
		}
	}
}

func TestPropDminLowerBoundsDLL(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		lu := seg(boundedPoint(r), boundedPoint(r))
		lv := seg(boundedPoint(r), boundedPoint(r))
		dmin := Dmin(lu.Bounds(), lv.Bounds())
		if dll := DLL(lu, lv); dmin > dll+1e-9 {
			t.Fatalf("Dmin=%g exceeds DLL=%g (lu=%v lv=%v)", dmin, dll, lu, lv)
		}
	}
}

func TestPropRectUnionMonotone(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		u := rectOf(a, b).Union(rectOf(c))
		return u.ExtendPoint(a) == u && u.ExtendPoint(b) == u && u.ExtendPoint(c) == u
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}
