package dbscan

import (
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
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

func (p *PolylineDistanceParams) tol(sg *simplify.Segment) float64 {
	if p.Tolerance == GlobalTolerance {
		return p.GlobalDelta
	}
	return sg.Tolerance
}

// dist is the configured bound's segment distance: D* or DLL.
func (p *PolylineDistanceParams) dist(sa, sb *simplify.Segment) float64 {
	if p.Bound == BoundDStar {
		return geom.DStar(sa.TimedSegment, sb.TimedSegment)
	}
	return geom.DLL(sa.Segment, sb.Segment)
}

// withinBound reports whether some pair of a's and b's segments whose
// closed tick intervals intersect — one shared end tick is enough — passes
// the Lemma 1/3 bound dist ≤ e + δ + δ, that is ω(a, b) ≤ e (Section 5.2),
// with early exit. Segment ends rise with their starts, so a segment of b
// that ends before one of a's starts ends before every later one starts
// too: one lagging index skips it for good. The pairs tested, and each test
// (the two tolerances are summed before e is added), are the same from
// either side, so withinBound(a, b) == withinBound(b, a).
func withinBound(a, b *Polyline, p *PolylineDistanceParams) bool {
	lo := 0
	for i := range a.Segs {
		sa := &a.Segs[i]
		for lo < len(b.Segs) && b.Segs[lo].EndTick() < sa.StartTick() {
			lo++
		}
		for j := lo; j < len(b.Segs) && b.Segs[j].StartTick() <= sa.EndTick(); j++ {
			sb := &b.Segs[j]
			if p.dist(sa, sb) <= p.Eps+(p.tol(sa)+p.tol(sb)) {
				return true
			}
		}
	}
	return false
}

// maxTol returns δmax under the configured tolerance mode.
func (p *PolylineDistanceParams) maxTol(pl *Polyline) float64 {
	if p.Tolerance == GlobalTolerance {
		return p.GlobalDelta
	}
	return pl.MaxTol
}

// PolylineClusterer is TRAJ-DBSCAN over one set of sub-polylines after
// another — the CuTS filter's λ-partitions, in order — on buffers it keeps
// from call to call: the rect index and its rectangles, the neighbor lists,
// the flood fill's labels and queue. A partition like the ones before it
// then allocates nothing but the components it reports. The zero value is
// ready to use; a clusterer is not safe for concurrent use.
type PolylineClusterer struct {
	rects []geom.Rect
	idx   grid.RectIndex
	cand  []int
	adj   Adjacency
	fill  componentFill
}

// Adjacency builds the segment-level neighborhood graph over the partition's
// sub-polylines under the configured distance bound, with Lemma 2 box
// pruning and grid candidate enumeration. Every unordered pair is looked up,
// time-checked, box-pruned and tested with withinBound once, from its lower
// index; the relation is symmetric, so a passing pair enters both lists. The
// graph lives in the clusterer's buffers: it is valid until the next call.
func (pc *PolylineClusterer) Adjacency(polys []Polyline, minPts int, p PolylineDistanceParams) Adjacency {
	n := len(polys)
	adj := &pc.adj
	// Reslicing within capacity keeps the hidden lists' backing arrays.
	if n <= cap(adj.NH) {
		adj.NH = adj.NH[:n]
	} else {
		adj.NH = append(adj.NH[:cap(adj.NH)], make([][]int, n-cap(adj.NH))...)
	}
	adj.Core = slices.Grow(adj.Core[:0], n)[:n]
	pc.rects = pc.rects[:0]
	maxTolAll := 0.0
	for i := range polys {
		adj.NH[i] = adj.NH[i][:0]
		pc.rects = append(pc.rects, polys[i].Bounds)
		if t := p.maxTol(&polys[i]); t > maxTolAll {
			maxTolAll = t
		}
	}
	if n == 0 {
		return *adj
	}
	cell := p.Eps + 2*maxTolAll
	if cell <= 0 {
		cell = 1
	}
	pc.idx.Reset(pc.rects, cell)
	for i := range polys {
		q := &polys[i]
		qTol := p.maxTol(q)
		// NH[i] already lists i's lower-indexed neighbors, ascending: each
		// entered i when its own turn came.
		nh := append(adj.NH[i], i)
		own := len(nh)
		pc.cand = pc.idx.Intersecting(q.Bounds.Inflate(p.Eps+qTol+maxTolAll), pc.cand[:0])
		for _, j := range pc.cand {
			if j <= i {
				continue
			}
			o := &polys[j]
			if o.T1 < q.T0 || q.T1 < o.T0 {
				continue
			}
			if !p.NoBoxPrune && geom.Dmin(q.Bounds, o.Bounds) > p.Eps+qTol+p.maxTol(o) {
				continue
			}
			if withinBound(q, o, &p) {
				nh = append(nh, j)
				adj.NH[j] = append(adj.NH[j], i)
			}
		}
		slices.Sort(nh[own:])
		adj.NH[i] = nh
		adj.Core[i] = len(nh) >= minPts // complete: no later turn adds to it
	}
	return *adj
}

// Components returns the merged disjoint segment-level components used by
// the CuTS filter step (Algorithm 2, line 11), as ClusterComponents reports
// them. The lists are the caller's: they are carved from one fresh arena.
func (pc *PolylineClusterer) Components(polys []Polyline, minPts int, p PolylineDistanceParams) [][]int {
	return pc.fill.components(pc.Adjacency(polys, minPts, p))
}
