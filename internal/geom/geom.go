// Package geom provides the planar geometry substrate used throughout the
// convoy-discovery library: points, line segments, axis-aligned rectangles,
// and the four distance functions of the paper's Definition 1 —
//
//   - D(p, q):        Euclidean distance between two points,
//   - DPL(p, l):      shortest distance from a point to a line segment,
//   - DLL(lu, lv):    shortest distance between two line segments,
//   - Dmin(Bu, Bv):   minimum distance between two boxes,
//
// plus the Closest-Point-of-Approach (CPA) machinery behind the tightened
// synchronous segment distance D* of Section 6.2.
//
// All computations use float64 and are purely value-based; the package has
// no dependencies beyond math.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the 2-D spatial domain.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String renders the point as "(x, y)" with compact formatting.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Finite reports whether f is a usable coordinate (not NaN, not ±Inf).
// Non-finite values poison every downstream distance computation and can
// panic the spatial index, so every ingestion surface (CSV/CTB readers,
// the feed API) rejects them with this shared predicate.
func Finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Finite reports whether both coordinates are finite.
func (p Point) Finite() bool { return Finite(p.X) && Finite(p.Y) }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p − q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product of p and q viewed as
// vectors; its sign gives the orientation of q relative to p.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Norm2 returns the squared Euclidean length of p viewed as a vector.
func (p Point) Norm2() float64 { return p.X*p.X + p.Y*p.Y }

// Lerp linearly interpolates between p and q: result = p + f·(q−p).
// f is not clamped; f=0 yields p and f=1 yields q.
func (p Point) Lerp(q Point, f float64) Point {
	return Point{p.X + f*(q.X-p.X), p.Y + f*(q.Y-p.Y)}
}

// D returns the Euclidean distance between two points (Definition 1).
func D(p, q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// D2 returns the squared Euclidean distance between two points. Useful for
// comparisons that avoid the square root.
func D2(p, q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Segment is a directed line segment from A to B. Most distance functions
// treat it as an undirected point set.
type Segment struct {
	A, B Point
}

// String renders the segment as "A–B".
func (s Segment) String() string { return fmt.Sprintf("%v–%v", s.A, s.B) }

// At returns the point A + f·(B−A); f is not clamped.
func (s Segment) At(f float64) Point { return s.A.Lerp(s.B, f) }

// Bounds returns the minimum bounding box B(l) of the segment.
func (s Segment) Bounds() Rect {
	return Rect{
		MinX: math.Min(s.A.X, s.B.X),
		MinY: math.Min(s.A.Y, s.B.Y),
		MaxX: math.Max(s.A.X, s.B.X),
		MaxY: math.Max(s.A.Y, s.B.Y),
	}
}

// ClosestFraction returns the parameter f in [0,1] such that s.At(f) is the
// point of s closest to p. A degenerate (zero-length) segment yields 0.
func (s Segment) ClosestFraction(p Point) float64 {
	ab := s.B.Sub(s.A)
	den := ab.Norm2()
	if den == 0 {
		return 0
	}
	f := p.Sub(s.A).Dot(ab) / den
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// ClosestPoint returns the point on s closest to p.
func (s Segment) ClosestPoint(p Point) Point {
	return s.At(s.ClosestFraction(p))
}

// DPL returns the shortest Euclidean distance between point p and any point
// on segment l (Definition 1).
func DPL(p Point, l Segment) float64 {
	return D(p, l.ClosestPoint(p))
}

// segmentsIntersect reports whether the two closed segments share at least
// one point, including collinear-overlap and endpoint-touch cases.
func segmentsIntersect(s, t Segment) bool {
	d1 := direction(t.A, t.B, s.A)
	d2 := direction(t.A, t.B, s.B)
	d3 := direction(s.A, s.B, t.A)
	d4 := direction(s.A, s.B, t.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && onSegment(t.A, t.B, s.A):
		return true
	case d2 == 0 && onSegment(t.A, t.B, s.B):
		return true
	case d3 == 0 && onSegment(s.A, s.B, t.A):
		return true
	case d4 == 0 && onSegment(s.A, s.B, t.B):
		return true
	}
	return false
}

// direction returns the orientation of point p relative to the directed line
// a→b: positive for left turn, negative for right turn, zero for collinear.
func direction(a, b, p Point) float64 {
	return b.Sub(a).Cross(p.Sub(a))
}

// onSegment reports whether collinear point p lies within the bounding box of
// segment ab; callers must ensure collinearity first.
func onSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

// DLL returns the shortest Euclidean distance between any two points on the
// segments lu and lv respectively (Definition 1). Intersecting segments have
// distance zero; otherwise the minimum is attained at an endpoint of one of
// the segments against the other segment.
func DLL(lu, lv Segment) float64 {
	if segmentsIntersect(lu, lv) {
		return 0
	}
	d := DPL(lu.A, lv)
	if v := DPL(lu.B, lv); v < d {
		d = v
	}
	if v := DPL(lv.A, lu); v < d {
		d = v
	}
	if v := DPL(lv.B, lu); v < d {
		d = v
	}
	return d
}

// Rect is an axis-aligned rectangle (a minimum bounding box in the paper's
// terminology). A Rect with Min > Max on either axis is considered empty.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect returns the identity element for Union: a rectangle that contains
// nothing and leaves any rectangle unchanged when united with it.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// String renders the rectangle as "[minX,minY..maxX,maxY]".
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g..%g,%g]", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// ExtendPoint returns the smallest rectangle covering both r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return Rect{
		MinX: math.Min(r.MinX, p.X),
		MinY: math.Min(r.MinY, p.Y),
		MaxX: math.Max(r.MaxX, p.X),
		MaxY: math.Max(r.MaxY, p.Y),
	}
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Dmin returns the minimum distance between any pair of points belonging to
// the two boxes (Definition 1). Overlapping boxes have distance zero.
// Calling Dmin with an empty rectangle returns +Inf, which is the correct
// identity for pruning (an empty set is infinitely far from everything).
func Dmin(bu, bv Rect) float64 {
	if bu.IsEmpty() || bv.IsEmpty() {
		return math.Inf(1)
	}
	dx := axisGap(bu.MinX, bu.MaxX, bv.MinX, bv.MaxX)
	dy := axisGap(bu.MinY, bu.MaxY, bv.MinY, bv.MaxY)
	return math.Hypot(dx, dy)
}

// axisGap returns the gap between intervals [aLo,aHi] and [bLo,bHi] on one
// axis, zero when they overlap.
func axisGap(aLo, aHi, bLo, bHi float64) float64 {
	switch {
	case bLo > aHi:
		return bLo - aHi
	case aLo > bHi:
		return aLo - bHi
	default:
		return 0
	}
}
