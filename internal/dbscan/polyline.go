package dbscan

import (
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/simplify"
)

// Polyline is one object's simplified sub-trajectory within a time
// partition: the time-ordered run of simplified segments whose intervals
// intersect the partition (the per-object entries of the data structure G in
// Algorithm 2).
type Polyline struct {
	// Object is the owning object's ID.
	Object model.ObjectID
	// Segs are the segments intersecting the partition, in time order.
	Segs []simplify.Segment
	// Bounds is the MBR of all segments (the B(S) of Lemma 2).
	Bounds geom.Rect
	// MaxTol is δmax(S): the maximum actual tolerance over the segments.
	MaxTol float64
	// T0, T1 is the union time span of the segments.
	T0, T1 model.Tick
}

// NewPolyline assembles a Polyline from time-ordered segments, computing its
// bounding box, maximum tolerance and time span. segs must be non-empty.
func NewPolyline(object model.ObjectID, segs []simplify.Segment) Polyline {
	p := Polyline{
		Object: object,
		Segs:   segs,
		Bounds: geom.EmptyRect(),
		T0:     segs[0].StartTick(),
		T1:     segs[len(segs)-1].EndTick(),
	}
	for _, sg := range segs {
		p.Bounds = p.Bounds.Union(sg.Segment.Bounds())
		if sg.Tolerance > p.MaxTol {
			p.MaxTol = sg.Tolerance
		}
	}
	return p
}

// BoundKind selects which segment-pair distance bound the filter step uses.
type BoundKind int

const (
	// BoundDLL is the Lemma 1 bound over the free-space segment distance:
	// prune unless DLL(l'q, l'i) ≤ e + δ(l'q) + δ(l'i). Used by CuTS/CuTS+.
	BoundDLL BoundKind = iota
	// BoundDStar is the Lemma 3 bound over the synchronous CPA distance:
	// prune unless D*(l'q, l'i) ≤ e + δ(l'q) + δ(l'i). Used by CuTS*.
	// It requires DP*-simplified trajectories (time-ratio tolerances).
	BoundDStar
)

// ToleranceMode selects which δ enters the distance bounds.
type ToleranceMode int

const (
	// ActualTolerance uses each segment's recorded actual tolerance
	// (Definition 4) — the tighter choice evaluated in Figure 14.
	ActualTolerance ToleranceMode = iota
	// GlobalTolerance uses the global simplification δ for every segment.
	GlobalTolerance
)

// PolylineDistanceParams configures the filter's neighborhood predicate.
type PolylineDistanceParams struct {
	Eps         float64       // the convoy distance threshold e
	Bound       BoundKind     // DLL (CuTS/CuTS+) or D* (CuTS*)
	Tolerance   ToleranceMode // actual (default) or global δ
	GlobalDelta float64       // δ used when Tolerance == GlobalTolerance
	// NoBoxPrune disables the Lemma 2 box-distance pruning (ablation
	// switch; results are unaffected, only speed).
	NoBoxPrune bool
}

func (p PolylineDistanceParams) tol(sg simplify.Segment) float64 {
	if p.Tolerance == GlobalTolerance {
		return p.GlobalDelta
	}
	return sg.Tolerance
}

// Omega computes ω(o'q, o'i) (Section 5.2): the minimum over time-overlapping
// segment pairs of dist(l'q, l'i) − δ(l'q) − δ(l'i), where dist is DLL or D*
// according to the bound kind. It returns +Inf when no segment pair shares a
// time interval. Two objects can be within e of each other at some shared
// tick only if ω ≤ e.
func Omega(a, b Polyline, p PolylineDistanceParams) float64 {
	best := mathInf
	i, j := 0, 0
	for i < len(a.Segs) && j < len(b.Segs) {
		sa, sb := &a.Segs[i], &b.Segs[j]
		switch {
		case sa.EndTick() < sb.StartTick():
			i++
		case sb.EndTick() < sa.StartTick():
			j++
		default:
			var dist float64
			if p.Bound == BoundDStar {
				dist = geom.DStar(sa.TimedSegment, sb.TimedSegment)
			} else {
				dist = geom.DLL(sa.Segment, sb.Segment)
			}
			if v := dist - p.tol(*sa) - p.tol(*sb); v < best {
				best = v
			}
			if sa.EndTick() <= sb.EndTick() {
				i++
			} else {
				j++
			}
		}
	}
	return best
}

// withinBound reports whether some time-overlapping segment pair of a and b
// passes the distance bound (i.e., ω(a,b) ≤ e), with early exit.
func withinBound(a, b Polyline, p PolylineDistanceParams) bool {
	i, j := 0, 0
	for i < len(a.Segs) && j < len(b.Segs) {
		sa, sb := &a.Segs[i], &b.Segs[j]
		switch {
		case sa.EndTick() < sb.StartTick():
			i++
		case sb.EndTick() < sa.StartTick():
			j++
		default:
			var dist float64
			if p.Bound == BoundDStar {
				dist = geom.DStar(sa.TimedSegment, sb.TimedSegment)
			} else {
				dist = geom.DLL(sa.Segment, sb.Segment)
			}
			if dist <= p.Eps+p.tol(*sa)+p.tol(*sb) {
				return true
			}
			if sa.EndTick() <= sb.EndTick() {
				i++
			} else {
				j++
			}
		}
	}
	return false
}

// maxTol returns δmax under the configured tolerance mode.
func (p PolylineDistanceParams) maxTol(pl Polyline) float64 {
	if p.Tolerance == GlobalTolerance {
		return p.GlobalDelta
	}
	return pl.MaxTol
}
