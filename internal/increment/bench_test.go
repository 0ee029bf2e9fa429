package increment

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// orbitEps is the clustering radius of the orbit fixtures; the worlds are
// sized so that an object has about two ε-neighbors — sparse enough that
// most objects are noise, dense enough that a few clusters form, dissolve
// and re-form as the objects move.
const orbitEps = 8.0

// orbitFrames returns a periodic stream of period snapshots over n objects
// (ids 0..n-1): each object circles its own center with a radius of up to
// three ε, so it keeps crossing grid cells and ε-boundaries, and the frame
// after the last is the first again — a stream a warm engine can be held to
// a steady state on. moveEvery = 1 moves every object every frame (a full
// pass each tick); moveEvery = 10 moves a rotating tenth of them (10 % churn:
// incremental passes), each still closing its circle within the period.
func orbitFrames(n, period, moveEvery int) ([]model.ObjectID, [][]geom.Point) {
	return orbitWorld(n, period, moveEvery, 10*math.Sqrt(float64(n)), orbitEps)
}

// orbitWorld is orbitFrames in a square world of the given side, with
// orbits scaled to eps.
func orbitWorld(n, period, moveEvery int, extent, eps float64) ([]model.ObjectID, [][]geom.Point) {
	r := rand.New(rand.NewSource(int64(n)))
	ids := make([]model.ObjectID, n)
	center := make([]geom.Point, n)
	radius := make([]float64, n)
	phase := make([]float64, n)
	for i := range ids {
		ids[i] = i
		center[i] = geom.Pt(r.Float64()*extent, r.Float64()*extent)
		radius[i] = (0.5 + 2.5*r.Float64()) * eps
		phase[i] = 2 * math.Pi * r.Float64()
	}
	frames := make([][]geom.Point, period)
	for t := range frames {
		frames[t] = make([]geom.Point, n)
		for i := range ids {
			// Object i moves at the ticks s with (s+i) % moveEvery = 0:
			// this many times by frame t, period/moveEvery times a lap.
			moves := (t + i%moveEvery) / moveEvery
			a := phase[i] + 2*math.Pi*float64(moves*moveEvery)/float64(period)
			frames[t][i] = geom.Pt(center[i].X+radius[i]*math.Cos(a), center[i].Y+radius[i]*math.Sin(a))
		}
	}
	return ids, frames
}

// BenchmarkEngineTick prices one Tick of a warm engine, per layer: full-nN
// is a full pass over N objects that all moved (Truck's regime at N ≈ 12–31,
// a dense feed's above), on both sides of allPairsMax; churn10-n285 is the
// incremental pass of a Commute-sized feed where a tenth moved, packed into
// ≈ 170 units — and churn10-n285-sparse the same in Commute's own 2 000-unit
// world at e = 10, where a grid sized to the extent would span 40 000 cells.
func BenchmarkEngineTick(b *testing.B) {
	for _, bc := range []struct {
		name         string
		n, moveEvery int
		extent, eps  float64 // 0: orbitFrames' world
	}{
		{"full-n12", 12, 1, 0, 0},
		{"full-n31", 31, 1, 0, 0},
		{"full-n64", 64, 1, 0, 0},
		{"full-n285", 285, 1, 0, 0},
		{"churn10-n285", 285, 10, 0, 0},
		{"churn10-n285-sparse", 285, 10, 2000, 10},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const period = 100
			ids, frames := orbitFrames(bc.n, period, bc.moveEvery)
			eps := orbitEps
			if bc.extent > 0 {
				eps = bc.eps
				ids, frames = orbitWorld(bc.n, period, bc.moveEvery, bc.extent, eps)
			}
			e := New(eps, 3, DefaultChurnThreshold)
			for _, pts := range frames {
				e.Tick(ids, pts)
			}
			b.ReportAllocs()
			t := 0
			for b.Loop() {
				e.Tick(ids, frames[t%period])
				t++
			}
			full, inc, _, _ := e.Counters()
			b.ReportMetric(float64(full)/float64(full+inc), "full-share")
		})
	}
}

// BenchmarkFullPassNeighborhoods is the crossover behind allPairsMax: the
// two ways a full pass can fill the neighborhoods, timed on the same warm
// engine over the same moving snapshots at sizes around the constant.
func BenchmarkFullPassNeighborhoods(b *testing.B) {
	for _, n := range []int{12, 31, 64, 128, 192, 256, 400} {
		const period = 100
		ids, frames := orbitFrames(n, period, 1)
		e := New(orbitEps, 3, DefaultChurnThreshold)
		e.Tick(ids, frames[0]) // slots = snapshot indices from here on
		for _, path := range []struct {
			name string
			fill func([]geom.Point)
		}{{"allpairs", e.allPairs}, {"grid", e.gridPairs}} {
			b.Run(fmt.Sprintf("%s-n%d", path.name, n), func(b *testing.B) {
				for _, pts := range frames {
					path.fill(pts)
				}
				t := 0
				for b.Loop() {
					path.fill(frames[t%period])
					t++
				}
			})
		}
	}
}
