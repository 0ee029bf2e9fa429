package dbscan

import (
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/simplify"
)

// fuzzPolyline decodes one polyline of at most six segments. A count of
// zero is a single-sample trajectory: one zero-duration segment. Ticks start
// in [0, 3] and step by 1–3, so the two polylines of a case often share end
// ticks. An odd clip byte clips the segments to a window, as the CuTS*
// filter clips them to its λ-partition, which turns a segment meeting the
// window at one edge tick into a zero-length one. Coordinates and
// tolerances lie on a quarter-unit lattice, so a distance can meet the
// bound exactly.
func fuzzPolyline(id model.ObjectID, next func() byte) Polyline {
	n := int(next() % 7)
	tick := model.Tick(next() % 4)
	pt := func() geom.Point { return geom.Pt(float64(int8(next()))/4, float64(int8(next()))/4) }
	tol := func() float64 { return float64(next()%16) / 4 }
	seg := func(a, b geom.Point, t0, t1 model.Tick) simplify.Segment {
		return simplify.Segment{TimedSegment: geom.TimedSeg(a, b, float64(t0), float64(t1)), Tolerance: tol()}
	}
	a := pt()
	var segs []simplify.Segment
	for range n {
		b, end := pt(), tick+1+model.Tick(next()%3)
		segs = append(segs, seg(a, b, tick, end))
		a, tick = b, end
	}
	if n == 0 {
		segs = append(segs, seg(a, a, tick, tick))
	}
	if c := next(); c%2 == 1 {
		lo := model.Tick(c / 2 % 8)
		hi := lo + model.Tick(c/16%8)
		var clipped []simplify.Segment
		for _, sg := range segs {
			if sg.StartTick() <= hi && lo <= sg.EndTick() {
				clipped = append(clipped, sg.ClipTime(lo, hi))
			}
		}
		if len(clipped) > 0 {
			segs = clipped
		}
	}
	return NewPolyline(id, segs)
}

// byteReader returns the bytes of data one call at a time, then zeros.
func byteReader(data []byte) func() byte {
	return func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
}

// FuzzPolylineWithin: the filter's neighborhood predicate is symmetric and
// is the brute-force one — some pair of time-overlapping segments passes
// dist ≤ e + δ + δ — under both bounds and both tolerance modes.
func FuzzPolylineWithin(f *testing.F) {
	f.Add([]byte{})
	// A single sample at tick 2 against a polyline with a vertex there, at
	// distance exactly e.
	f.Add([]byte{0, 8, 0, 0, 2, 4, 4, 0, 0, 2, 0, 0, 0, 8, 0, 1, 0, 16, 0, 1, 0, 0})
	// Segments that end together at tick 2, where only a pair across the
	// tie passes: a's second segment against b's first.
	f.Add([]byte{0, 8, 0, 2, 0, 0, 0, 8, 0, 1, 0, 0, 8, 1, 0, 0, 2, 0, 0, 12, 8, 12, 1, 0, 16, 12, 1, 0, 0})
	// Clipped to [3, 3] and [2, 5]: zero-length edge segments.
	f.Add([]byte{2, 16, 8, 3, 1, 0, 0, 4, 4, 1, 2, 8, 8, 0, 0, 12, 12, 1, 1, 7, 1, 0, 0, 8, 8, 8, 2, 0, 53})
	// Global tolerance, D* bound, two samples exactly e + 2δ apart.
	f.Add([]byte{3, 8, 4, 0, 0, 0, 0, 0, 0, 0, 0, 12, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := byteReader(data)
		head := next()
		p := PolylineDistanceParams{
			Eps:         float64(next()) / 8,
			Bound:       BoundKind(head % 2),
			Tolerance:   ToleranceMode(head / 2 % 2),
			GlobalDelta: float64(next()%16) / 4,
		}
		a, b := fuzzPolyline(0, next), fuzzPolyline(1, next)
		ab, ba := withinBound(&a, &b, &p), withinBound(&b, &a, &p)
		if ab != ba {
			t.Fatalf("withinBound(a, b) = %v but withinBound(b, a) = %v\na = %+v\nb = %+v\n%+v", ab, ba, a.Segs, b.Segs, p)
		}
		if want := bruteWithin(&a, &b, &p); ab != want {
			t.Fatalf("withinBound = %v, brute force = %v\na = %+v\nb = %+v\n%+v", ab, want, a.Segs, b.Segs, p)
		}
	})
}

// FuzzPolylineAdjacency: the clusterer's x sweep finds exactly the
// brute-force neighborhood graph of up to eight lattice polylines — so MinX
// ties and pairs exactly at the bound are common — and its components are
// clusterComponents of that graph, under both bounds, both tolerance modes
// and box pruning on or off.
func FuzzPolylineAdjacency(f *testing.F) {
	f.Add([]byte{})
	// Three one-segment polylines whose boxes all start at x = 0, stacked
	// 1 = e apart in y: a three-way MinX tie, and two pairs at the bound.
	f.Add([]byte{8, 8, 0, 2,
		1, 0, 0, 0, 16, 0, 0, 0, 0,
		1, 0, 0, 4, 16, 4, 0, 0, 0,
		1, 0, 0, 8, 16, 8, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := byteReader(data)
		head := next()
		p := PolylineDistanceParams{
			Eps:         float64(next()) / 8,
			Bound:       BoundKind(head % 2),
			Tolerance:   ToleranceMode(head / 2 % 2),
			GlobalDelta: float64(next()%16) / 4,
			NoBoxPrune:  head/4%2 == 1,
		}
		minPts := 1 + int(head/8%4)
		polys := make([]Polyline, 1+next()%8)
		for i := range polys {
			polys[i] = fuzzPolyline(i, next)
		}
		want := buildAdjacency(len(polys), minPts, func(i int, buf []int) []int {
			for j := range polys {
				if i == j || bruteWithin(&polys[i], &polys[j], &p) {
					buf = append(buf, j)
				}
			}
			return buf
		})
		var pc PolylineClusterer
		if got := pc.Adjacency(polys, minPts, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("adjacency %v, brute force %v\n%+v\npolys %+v", got, want, p, polys)
		}
		if got, wc := pc.Components(polys, minPts, p), clusterComponents(want); !reflect.DeepEqual(got, wc) {
			t.Fatalf("components %v, brute force %v\n%+v\npolys %+v", got, wc, p, polys)
		}
	})
}
