package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// TestPartitionWindowsInvariants pins the geometric contract behind the
// merge's exactness: the windows cover the domain, consecutive windows
// overlap by exactly k−1 ticks, and every k consecutive ticks lie entirely
// inside some window.
func TestPartitionWindowsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		lo := model.Tick(rng.Intn(40) - 20)
		span := int64(1 + rng.Intn(60))
		hi := lo + model.Tick(span) - 1
		k := int64(1 + rng.Intn(12))
		n := 1 + rng.Intn(9)
		ws := PartitionWindows(lo, hi, k, n)
		if len(ws) == 0 {
			t.Fatalf("no windows for [%d,%d] k=%d n=%d", lo, hi, k, n)
		}
		if len(ws) > n {
			t.Fatalf("[%d,%d] k=%d n=%d: %d windows > n", lo, hi, k, n, len(ws))
		}
		if ws[0].Lo != lo || ws[len(ws)-1].Hi != hi {
			t.Fatalf("[%d,%d] k=%d n=%d: windows %v do not span the domain", lo, hi, k, n, ws)
		}
		for i, w := range ws {
			if w.Hi < w.Lo {
				t.Fatalf("inverted window %v", w)
			}
			if i > 0 {
				overlap := int64(ws[i-1].Hi-w.Lo) + 1
				if len(ws) > 1 && i < len(ws)-1 && overlap != k-1 {
					t.Fatalf("[%d,%d] k=%d n=%d: windows %d/%d overlap %d, want %d", lo, hi, k, n, i-1, i, overlap, k-1)
				}
				if overlap < k-1 {
					t.Fatalf("[%d,%d] k=%d n=%d: windows %d/%d overlap %d < k-1", lo, hi, k, n, i-1, i, overlap)
				}
			}
		}
		// Every k-tick run of the domain fits inside one window.
		for s := lo; s+model.Tick(k)-1 <= hi; s++ {
			ok := false
			for _, w := range ws {
				if s >= w.Lo && s+model.Tick(k)-1 <= w.Hi {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("[%d,%d] k=%d n=%d: k-run starting at %d not inside any of %v", lo, hi, k, n, s, ws)
			}
		}
	}
}

// TestPartitionWindowsBoundWork: whatever n asks for — up to 10⁸ — the
// windows mine at most twice the span's ticks between them, and still cover
// the domain with consecutive windows overlapping by ≥ k−1 ticks, which puts
// every k consecutive ticks inside one window.
func TestPartitionWindowsBoundWork(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 2000; trial++ {
		lo := model.Tick(rng.Intn(1000) - 500)
		span := int64(1 + rng.Intn(5000))
		hi := lo + model.Tick(span) - 1
		k := int64(1 + rng.Intn(200))
		n := 1 + rng.Intn(1<<uint(rng.Intn(28)))
		if trial%10 == 0 {
			n = 100_000_000
		}
		ws := PartitionWindows(lo, hi, k, n)
		if len(ws) == 0 || len(ws) > n {
			t.Fatalf("[%d,%d] k=%d n=%d: %d windows", lo, hi, k, n, len(ws))
		}
		if ws[0].Lo != lo || ws[len(ws)-1].Hi != hi {
			t.Fatalf("[%d,%d] k=%d n=%d: windows %v do not span the domain", lo, hi, k, n, ws)
		}
		var mined int64
		for i, w := range ws {
			mined += int64(w.Hi-w.Lo) + 1
			if i == 0 {
				continue
			}
			prev := ws[i-1]
			if w.Lo <= prev.Lo || w.Hi <= prev.Hi {
				t.Fatalf("[%d,%d] k=%d n=%d: windows %d/%d (%v, %v) out of order", lo, hi, k, n, i-1, i, prev, w)
			}
			if overlap := int64(prev.Hi-w.Lo) + 1; overlap < k-1 {
				t.Fatalf("[%d,%d] k=%d n=%d: windows %d/%d overlap %d < k-1", lo, hi, k, n, i-1, i, overlap)
			}
		}
		if mined > 2*span {
			t.Fatalf("[%d,%d] k=%d n=%d: %d windows mine %d ticks, more than twice the span %d", lo, hi, k, n, len(ws), mined, span)
		}
	}
}

// TestSliceTimeInterpolates pins the interpolation-aware slicing: a window
// boundary falling inside a sampling gap materializes the virtual location,
// so the sliced trajectory agrees with the original at every in-window tick.
func TestSliceTimeInterpolates(t *testing.T) {
	tr, err := model.NewTrajectory("a", []model.Sample{
		{T: 0, P: geom.Pt(0, 0)},
		{T: 10, P: geom.Pt(10, 20)},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := model.NewDB()
	db.Add(tr)
	sliced, ids := SliceTime(db, 3, 7)
	if sliced.Len() != 1 || len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("slice: %d objects, ids %v", sliced.Len(), ids)
	}
	got := sliced.Traj(0)
	if got.Start() != 3 || got.End() != 7 {
		t.Fatalf("sliced span [%d,%d], want [3,7]", got.Start(), got.End())
	}
	for tk := model.Tick(3); tk <= 7; tk++ {
		want, _ := tr.LocationAt(tk)
		have, ok := got.LocationAt(tk)
		if !ok || have != want {
			t.Fatalf("tick %d: sliced %v (ok=%v), want %v", tk, have, ok, want)
		}
	}
	// An object entirely outside the window is dropped.
	if s, ids := SliceTime(db, 20, 30); s.Len() != 0 || len(ids) != 0 {
		t.Fatalf("out-of-window slice kept %d objects", s.Len())
	}
}

// convoyDB builds a randomized database with engineered convoy structure:
// objects joining and leaving shared anchors, sampling gaps, staggered
// lifespans — adversarial inputs for every plan, the merge included.
func convoyDB(t *testing.T, rng *rand.Rand) *model.DB {
	t.Helper()
	const (
		objects = 8
		ticks   = 36
	)
	// Two anchors wander along precomputed paths shared by every follower;
	// each object follows an anchor for random stretches or walks alone.
	paths := make([][2]geom.Point, ticks+1)
	a := [2]geom.Point{geom.Pt(10, 10), geom.Pt(60, 60)}
	for tk := range paths {
		paths[tk] = a
		for i := range a {
			a[i] = geom.Pt(a[i].X+rng.Float64()-0.5, a[i].Y+rng.Float64()-0.5)
		}
	}
	db := model.NewDB()
	for o := 0; o < objects; o++ {
		start := model.Tick(rng.Intn(8))
		end := model.Tick(ticks - rng.Intn(8))
		pos := geom.Pt(rng.Float64()*80, rng.Float64()*80)
		mode := rng.Intn(3) // 0,1: follow anchor; 2: alone
		var samples []model.Sample
		for tk := start; tk <= end; tk++ {
			if rng.Float64() < 0.1 {
				mode = rng.Intn(3)
			}
			switch mode {
			case 0, 1:
				an := paths[tk][mode]
				pos = geom.Pt(an.X+rng.Float64()*2-1, an.Y+rng.Float64()*2-1)
			default:
				pos = geom.Pt(pos.X+rng.Float64()*2-1, pos.Y+rng.Float64()*2-1)
			}
			// Sampling gaps: skip some interior ticks (first and last kept so
			// the lifespan is exact).
			if tk != start && tk != end && rng.Float64() < 0.15 {
				continue
			}
			samples = append(samples, model.Sample{T: tk, P: pos})
		}
		tr, err := model.NewTrajectory(fmt.Sprintf("o%d", o), samples)
		if err != nil {
			t.Fatal(err)
		}
		db.Add(tr)
	}
	return db
}

// boundaryDB lays out hand-checked scenarios around the window boundary at
// tick 5 (PartitionWindows(0, 9, 2, 2) = [0,5], [4,9]). Objects are glued
// (distance 0) when listed at the same anchor.
func scenarioWindows(t *testing.T, k int64) []Window {
	t.Helper()
	ws := PartitionWindows(0, 9, k, 2)
	if len(ws) != 2 || ws[0].Lo != 0 || ws[1].Hi != 9 {
		t.Fatalf("unexpected windows %v", ws)
	}
	return ws
}

// mineMerged answers the query the way the sharded coordinator does: cut
// db's domain into n windows, mine each sliced window with opts, remap the
// answers into db's ID space and stitch them with MergePartials.
func mineMerged(ctx context.Context, db *model.DB, p Params, n int, opts ...Option) (Result, error) {
	lo, hi, ok := db.TimeRange()
	if !ok {
		return nil, nil
	}
	ws := PartitionWindows(lo, hi, p.K, n)
	parts := make([][]Convoy, len(ws))
	for i, w := range ws {
		sliced, ids := SliceTime(db, w.Lo, w.Hi)
		res, err := NewQuery(append([]Option{WithParams(p)}, opts...)...).Run(ctx, sliced)
		if err != nil {
			return nil, err
		}
		parts[i] = RemapConvoys(res, ids)
	}
	return MergePartials(ws, parts, p), nil
}

// runMerged runs CMC over n windows and merges (mineMerged), and requires
// the answer to be the oracle's.
func runMerged(t *testing.T, db *model.DB, p Params, n int) Result {
	t.Helper()
	want := oracleAnswer(db, p)
	merged, err := mineMerged(context.Background(), db, p, n, WithCMC())
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Equal(want) {
		t.Fatalf("MergePartials ≠ oracle\nmerged:\n%v\nwant:\n%v", merged, want)
	}
	return want
}

// expect asserts that the result contains a convoy with exactly these
// members and interval.
func expect(t *testing.T, res Result, members []model.ObjectID, lo, hi model.Tick) {
	t.Helper()
	want := Convoy{Objects: members, Start: lo, End: hi}
	for _, c := range res {
		if c.Equal(want) {
			return
		}
	}
	t.Fatalf("result missing %v; got:\n%v", want, res)
}

// mergeCase is one of the hand-built scenarios around the windows a
// partitioned run cuts; the differential harness runs them as a family too.
type mergeCase struct {
	name  string
	db    *model.DB
	p     Params
	parts int
}

func mergeCases(t *testing.T) []mergeCase {
	return []mergeCase{
		mergeBoundarySpan(t), mergeThreePartitions(t), mergeLifetimeExactlyKInOverlap(t), mergeLeaveAndRejoin(t),
	}
}

// mergeBoundarySpan: a convoy exactly spanning the partition boundary.
func mergeBoundarySpan(t *testing.T) mergeCase {
	p := Params{M: 2, K: 4, Eps: 1}
	scenarioWindows(t, p.K) // sanity: [0,5],[4,9] shape (overlap k−1 = 3 → recompute)
	db := grid(t, 2, 10, func(o, tk int) geom.Point {
		if tk >= 3 && tk <= 8 {
			return geom.Pt(50, 50)
		}
		return geom.Pt(float64(o)*5, float64(tk)*2)
	})
	return mergeCase{"boundary-span", db, p, 2}
}

// mergeThreePartitions: a convoy straddling three partitions.
func mergeThreePartitions(t *testing.T) mergeCase {
	db := grid(t, 2, 12, func(o, tk int) geom.Point {
		if tk >= 1 && tk <= 10 {
			return geom.Pt(5, 5)
		}
		return geom.Pt(float64(o)*5, 20)
	})
	return mergeCase{"three-partitions", db, Params{M: 2, K: 3, Eps: 1}, 3}
}

// mergeLifetimeExactlyKInOverlap: convoys of lifetime exactly k that end
// (or start) exactly at the shared boundary tick.
func mergeLifetimeExactlyKInOverlap(t *testing.T) mergeCase {
	p := Params{M: 2, K: 2, Eps: 1}
	ws := scenarioWindows(t, p.K) // [0,5],[5,9]: the overlap is tick 5 alone
	if ws[0].Hi != 5 || ws[1].Lo != 5 {
		t.Fatalf("unexpected overlap %v", ws)
	}
	db := grid(t, 4, 10, func(o, tk int) geom.Point {
		switch {
		case o < 2 && (tk == 4 || tk == 5): // ends at the boundary tick
			return geom.Pt(7, 7)
		case o >= 2 && (tk == 5 || tk == 6): // starts at the boundary tick
			return geom.Pt(30, 30)
		}
		return geom.Pt(float64(o)*5+40, float64(tk)*2)
	})
	return mergeCase{"exactly-k-in-overlap", db, p, 2}
}

// mergeLeaveAndRejoin: o0, o1 together the whole time; o2 with them only on
// [0,5]; o3 joins the group on [2,4], leaves, and rejoins on [7,9].
func mergeLeaveAndRejoin(t *testing.T) mergeCase {
	p := Params{M: 2, K: 2, Eps: 1}
	scenarioWindows(t, p.K) // [0,5],[4,9]
	db := grid(t, 4, 10, func(o, tk int) geom.Point {
		if o < 2 || o == 2 && tk <= 5 || o == 3 && (tk >= 2 && tk <= 4 || tk >= 7) {
			return geom.Pt(20, 20)
		}
		return geom.Pt(float64(o)*5+40, float64(tk)*2)
	})
	return mergeCase{"leave-and-rejoin", db, p, 2}
}

// TestMergeBoundarySpan: a convoy exactly spanning the partition boundary
// is reassembled from its two partials.
func TestMergeBoundarySpan(t *testing.T) {
	c := mergeBoundarySpan(t)
	res := runMerged(t, c.db, c.p, c.parts)
	expect(t, res, []model.ObjectID{0, 1}, 3, 8)
}

// TestMergeThreePartitions: a convoy straddling three partitions is
// stitched through the middle window.
func TestMergeThreePartitions(t *testing.T) {
	c := mergeThreePartitions(t)
	lo, hi, _ := c.db.TimeRange()
	if ws := PartitionWindows(lo, hi, c.p.K, 3); len(ws) != 3 {
		t.Fatalf("want 3 windows, got %v", ws)
	}
	res := runMerged(t, c.db, c.p, c.parts)
	expect(t, res, []model.ObjectID{0, 1}, 1, 10)
}

// TestMergeLifetimeExactlyKInOverlap: convoys of lifetime exactly k that
// end (or start) exactly at the shared boundary tick are each visible in
// full to only one window — the other sees a sub-k fragment it never
// reports — and must come out exactly once.
func TestMergeLifetimeExactlyKInOverlap(t *testing.T) {
	c := mergeLifetimeExactlyKInOverlap(t)
	res := runMerged(t, c.db, c.p, c.parts)
	expect(t, res, []model.ObjectID{0, 1}, 4, 5)
	expect(t, res, []model.ObjectID{2, 3}, 5, 6)
	if len(res) != 2 {
		t.Fatalf("want exactly two convoys, got:\n%v", res)
	}
}

// TestMergeLeaveAndRejoin: an object that leaves the group exactly at the
// boundary (shrinking the convoy) and one that rejoins later must not be
// stitched across the gap (4+1=5 < 7); the shrunken convoy extends exactly.
func TestMergeLeaveAndRejoin(t *testing.T) {
	c := mergeLeaveAndRejoin(t)
	res := runMerged(t, c.db, c.p, c.parts)
	expect(t, res, []model.ObjectID{0, 1}, 0, 9)
	expect(t, res, []model.ObjectID{0, 1, 2}, 0, 5)
	expect(t, res, []model.ObjectID{0, 1, 2, 3}, 2, 4)
	expect(t, res, []model.ObjectID{0, 1, 3}, 7, 9)
}
