package dbscan

import (
	"slices"

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
// from call to call: the x order of the sweep, the neighbor lists, the flood
// fill's labels and queue. A partition like the ones before it then
// allocates nothing but the components it reports. The zero value is ready
// to use; a clusterer is not safe for concurrent use.
type PolylineClusterer struct {
	order []xKey
	adj   Adjacency
	fill  componentFill
}

// xKey is one polyline in the sweep's x order: its box's MinX, its index.
type xKey struct {
	minX float64
	i    int
}

// Adjacency builds the segment-level neighborhood graph over the partition's
// sub-polylines under the configured distance bound, with Lemma 2 box
// pruning. Candidate pairs come from one sweep in x, whatever the partition's
// size: the polylines are ordered by Bounds.MinX (ties by index), and each
// polyline q meets those after it whose MinX is at most q's MaxX + e +
// δmax(q) + δmax(all). No pair beyond that window can pass: none of its
// segments come closer than the x gap between the boxes, and no tolerance
// exceeds δmax. Each pair is tested once, from the earlier polyline in x
// order — time overlap, box prune, withinBound, with the lower index first,
// so each sum rounds as an index-order scan would round it — and a passing
// pair enters both lists, each sorted once at the end. The graph lives in
// the clusterer's buffers: it is valid until the next call.
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
	pc.order = pc.order[:0]
	maxTolAll := 0.0
	for i := range polys {
		adj.NH[i] = adj.NH[i][:0]
		pc.order = append(pc.order, xKey{polys[i].Bounds.MinX, i})
		maxTolAll = max(maxTolAll, p.maxTol(&polys[i]))
	}
	slices.SortFunc(pc.order, func(a, b xKey) int {
		switch {
		case a.minX < b.minX:
			return -1
		case a.minX > b.minX:
			return 1
		}
		return a.i - b.i
	})
	for at, a := range pc.order {
		i := a.i
		reach := polys[i].Bounds.MaxX + (p.Eps + p.maxTol(&polys[i]) + maxTolAll)
		for _, b := range pc.order[at+1:] {
			if b.minX > reach {
				break
			}
			j := b.i
			q, o := &polys[min(i, j)], &polys[max(i, j)]
			if o.T1 < q.T0 || q.T1 < o.T0 {
				continue
			}
			if !p.NoBoxPrune && geom.Dmin(q.Bounds, o.Bounds) > p.Eps+p.maxTol(q)+p.maxTol(o) {
				continue
			}
			if withinBound(q, o, &p) {
				adj.NH[i] = append(adj.NH[i], j)
				adj.NH[j] = append(adj.NH[j], i)
			}
		}
	}
	for i, nh := range adj.NH {
		nh = append(nh, i)
		slices.Sort(nh)
		adj.NH[i] = nh
		adj.Core[i] = len(nh) >= minPts
	}
	return *adj
}

// Components returns the merged disjoint segment-level components used by
// the CuTS filter step (Algorithm 2, line 11), as componentFill reports
// them. The lists are the caller's: they are carved from one fresh arena.
func (pc *PolylineClusterer) Components(polys []Polyline, minPts int, p PolylineDistanceParams) [][]int {
	return pc.fill.components(pc.Adjacency(polys, minPts, p))
}
