package grid

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// fuzzCoords are the coordinates a fuzz byte can name beyond the small
// grid-aligned ones: the signed zeros, the far side of the cell clamp, the
// edges of the float range, and the non-finite values.
var fuzzCoords = []float64{
	0, math.Copysign(0, -1), 3e9, -3e9, 1e300, -1e300,
	math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
}

// fuzzRadii are the query radii: 0 (the ε = 0 query: coincident points
// only), sub-cell, cell-sized and multi-cell ones, a radius whose square
// overflows, +Inf, and the two a query must refuse (negative and NaN).
var fuzzRadii = []float64{0, 0.25, 1, 2.5, 8, 40, 1e300, math.Inf(1), -1, math.NaN()}

// FuzzPointIndexOps decodes the input into a script of Reset, Insert,
// Remove, Move and Within operations over a 16-id space and checks, after
// every operation, one radius query against a brute-force scan of the
// points the script says are indexed (same predicate: D2 ≤ r², r ≥ 0).
// Small coordinates are quarter-cell multiples so points coincide, sit on
// cell boundaries and share cells; the rest come from fuzzCoords.
func FuzzPointIndexOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 0, 0, 2, 0, 0, 4, 1, 1, 0, 0, 1, 3, 200, 200, 2, 1, 4, 1, 7, 7})
	f.Add([]byte{1, 0, 5, 140, 140, 0, 7, 140, 140, 4, 2, 140, 140, 3, 0, 0, 0})
	r := rand.New(rand.NewSource(5))
	for range 4 {
		seed := make([]byte, 600)
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		coord := func() float64 {
			b := int(next())
			if b >= 256-len(fuzzCoords) {
				return fuzzCoords[255-b]
			}
			return (float64(b) - 120) / 4
		}
		point := func() geom.Point { x := coord(); return geom.Pt(x, coord()) }
		cell := []float64{1, 0.25, 2.5, 8}[next()%4]

		idx := NewPointIndex(nil, cell)
		var pts []geom.Point // the script's view: pts[i] is indexed iff in[i]
		var in []bool
		for op := 0; len(data) > 0 && op < 200; op++ {
			kind, id := next()%5, int(next()%16)
			switch kind {
			case 0: // Reset over ids 0..n−1
				n := int(next() % 12)
				fresh := make([]geom.Point, n)
				for i := range fresh {
					fresh[i] = point()
				}
				idx.Reset(fresh)
				pts, in = slices.Clone(fresh), make([]bool, n)
				for i := range in {
					in[i] = true
				}
			case 1, 3: // Insert an absent id, Move an indexed one
				for len(pts) <= id {
					pts, in = append(pts, geom.Point{}), append(in, false)
				}
				p := point()
				if in[id] {
					idx.Move(id, p)
				} else {
					idx.Insert(id, p)
				}
				pts[id], in[id] = p, true
			case 2:
				if id < len(in) && in[id] {
					idx.Remove(id)
					in[id] = false
				}
			case 4: // query only
			}
			for len(pts) <= id {
				pts, in = append(pts, geom.Point{}), append(in, false)
			}
			q, rad := point(), fuzzRadii[int(next())%len(fuzzRadii)]
			if kind != 4 && in[id] && next()%2 == 0 {
				q = pts[id] // a query at an indexed point, coincident with it
			}
			got := idx.Within(q, rad, nil)
			slices.Sort(got)
			var want []int
			for i, p := range pts {
				if in[i] && rad >= 0 && geom.D2(q, p) <= rad*rad {
					want = append(want, i)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("op %d (kind %d, id %d, cell %g): Within(%v, %g) = %v, brute force says %v\npoints %v\nindexed %v",
					op, kind, id, cell, q, rad, got, want, pts, in)
			}
			live := 0
			for _, b := range in {
				if b {
					live++
				}
			}
			if idx.n != live {
				t.Fatalf("op %d: Len = %d, want %d", op, idx.n, live)
			}
		}
	})
}
