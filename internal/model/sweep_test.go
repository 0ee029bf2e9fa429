package model

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// randomSweepDB builds a database that exercises every branch of the
// cursor: irregular sampling (gaps to interpolate), single-sample
// trajectories, staggered and disjoint lifespans, a time domain that starts
// anywhere from far negative to just below MaxTick.
func randomSweepDB(t *testing.T, r *rand.Rand, base Tick, span int) *DB {
	t.Helper()
	db := NewDB()
	for n := 3 + r.Intn(20); n > 0; n-- {
		var samples []Sample
		switch r.Intn(5) {
		case 0: // one sample
			samples = []Sample{{T: base + Tick(r.Intn(span)), P: geom.Pt(r.Float64(), r.Float64())}}
		default:
			start := r.Intn(span)
			keep := 0.2 + 0.8*r.Float64() // per-trajectory sampling density
			for i := start; i < span; i++ {
				if i > start && r.Float64() < 0.05 {
					break // ends early
				}
				if i == start || r.Float64() < keep {
					samples = append(samples, Sample{T: base + Tick(i), P: geom.Pt(r.Float64()*100, r.Float64()*100)})
				}
			}
		}
		tr, err := NewTrajectory("", samples)
		if err != nil {
			t.Fatal(err)
		}
		db.Add(tr)
	}
	return db
}

// reference is SnapshotAt restricted to a subset, spelled with LocationAt.
func referenceSnapshot(db *DB, subset []ObjectID, t Tick) ([]ObjectID, []geom.Point) {
	if subset == nil {
		return db.SnapshotAt(t)
	}
	var ids []ObjectID
	var pts []geom.Point
	for _, id := range subset {
		if p, ok := db.Traj(id).LocationAt(t); ok {
			ids = append(ids, id)
			pts = append(pts, p)
		}
	}
	return ids, pts
}

// TestCursorMatchesSnapshotAt is the sweep's contract: over ascending
// ticks, with skipped ticks and backward seeks thrown in, for the whole
// database and for random ascending subsets, At returns exactly the IDs
// and — bit for bit — the points SnapshotAt / LocationAt compute.
func TestCursorMatchesSnapshotAt(t *testing.T) {
	const span = 40
	bases := []Tick{0, -17, MinTick + 3, MaxTick - span + 1}
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		base := bases[int(seed)%len(bases)]
		db := randomSweepDB(t, r, base, span)
		var subset []ObjectID // nil on even seeds: the whole database
		if seed%2 == 1 {
			subset = []ObjectID{}
			for id := 0; id < db.Len(); id++ {
				if r.Intn(2) == 0 {
					subset = append(subset, id)
				}
			}
		}
		cur := db.Sweep(subset).Cursor()
		check := func(tick Tick) {
			t.Helper()
			ids, pts := cur.At(tick)
			wantIDs, wantPts := referenceSnapshot(db, subset, tick)
			if !slices.Equal(ids, wantIDs) {
				t.Fatalf("seed %d tick %d: ids %v, want %v", seed, tick, ids, wantIDs)
			}
			if !slices.Equal(pts, wantPts) { // == on float64: bit-exact up to ±0, and no NaNs here
				t.Fatalf("seed %d tick %d: pts %v, want %v", seed, tick, pts, wantPts)
			}
		}
		// Ticks just outside the domain on both sides too, where they exist.
		lo, hi := -2, span+2
		if base < MinTick+2 {
			lo = 0
		}
		if base > MaxTick-Tick(span)-2 {
			hi = span
		}
		for i := lo; i < hi; i++ {
			switch r.Intn(8) {
			case 0:
				i += r.Intn(6) // skip ticks
				if i >= hi {
					i = hi - 1
				}
			case 1:
				check(base + Tick(lo+r.Intn(i-lo+1))) // seek backwards, then resume
			case 2:
				check(base + Tick(i)) // the same tick twice
			}
			check(base + Tick(i))
		}
	}
}

// TestSweepWalksToMaxTick pins TickSpan as the overflow-safe walk: the
// domain [MaxTick-2, MaxTick] has three ticks and the loop over it ends.
func TestSweepWalksToMaxTick(t *testing.T) {
	if n := TickSpan(MaxTick-2, MaxTick); n != 3 {
		t.Fatalf("TickSpan = %d, want 3", n)
	}
	if n := TickSpan(5, 4); n != 0 {
		t.Fatalf("empty TickSpan = %d", n)
	}
	if n := TickSpan(MinTick, MaxTick); n <= 0 {
		t.Fatalf("saturating TickSpan = %d", n)
	}
	db := NewDB()
	tr, err := NewTrajectory("a", []Sample{{T: MaxTick - 2, P: geom.Pt(0, 0)}, {T: MaxTick, P: geom.Pt(2, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	db.Add(tr)
	lo, hi, _ := db.TimeRange()
	cur := db.Sweep(nil).Cursor()
	var xs []float64
	for i, n := int64(0), TickSpan(lo, hi); i < n; i++ {
		_, pts := cur.At(lo + Tick(i))
		xs = append(xs, pts[0].X)
	}
	if !slices.Equal(xs, []float64{0, 1, 2}) {
		t.Fatalf("swept x = %v", xs)
	}
}
