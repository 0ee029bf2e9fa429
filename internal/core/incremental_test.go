package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// churnWalkDB builds a database of n random walkers over [0, ticks) where
// each object moves each tick with probability moveProb (non-movers keep
// bit-identical positions — the situation the incremental engine exploits).
func churnWalkDB(t *testing.T, seed int64, n, ticks int, moveProb float64) *model.DB {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rows := make([][]geom.Point, n)
	for o := range rows {
		rows[o] = make([]geom.Point, ticks)
		p := geom.Pt(r.Float64()*60, r.Float64()*60)
		for i := 0; i < ticks; i++ {
			if i > 0 && r.Float64() < moveProb {
				p = geom.Pt(p.X+r.NormFloat64(), p.Y+r.NormFloat64())
			}
			rows[o][i] = p
		}
	}
	return buildDB(t, 0, rows...)
}

// TestCMCIncrementalMatchesFromScratch pins the batch acceptance property:
// the incremental CMC scan answers exactly the from-scratch scan, across
// churn rates and worker counts, while its counters prove that the
// low-churn runs actually skipped work.
func TestCMCIncrementalMatchesFromScratch(t *testing.T) {
	p := Params{M: 3, K: 5, Eps: 4}
	for _, tc := range []struct {
		name     string
		moveProb float64
	}{
		{"frozen", 0},
		{"low-churn", 0.05},
		{"high-churn", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := churnWalkDB(t, 42, 40, 160, tc.moveProb)
			for _, workers := range []int{1, 4} {
				var on, off Stats
				inc, err := NewQuery(WithParams(p), WithCMC(), WithWorkers(workers), WithStats(&on)).
					Run(context.Background(), db)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewQuery(WithParams(p), WithCMC(), WithWorkers(workers), WithStats(&off), WithIncremental(-1)).
					Run(context.Background(), db)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(inc, ref) {
					t.Fatalf("workers=%d: incremental answer diverged\n got %v\nwant %v", workers, inc, ref)
				}
				if off.ClusterPassesIncremental != 0 {
					t.Fatalf("workers=%d: WithIncremental(-1) still made %d incremental passes",
						workers, off.ClusterPassesIncremental)
				}
				if on.ClusterPasses != on.ClusterPassesFull+on.ClusterPassesIncremental {
					t.Fatalf("workers=%d: pass split %d+%d does not sum to %d",
						workers, on.ClusterPassesFull, on.ClusterPassesIncremental, on.ClusterPasses)
				}
				if tc.moveProb <= 0.05 && on.ClusterPassesIncremental == 0 {
					t.Fatalf("workers=%d: low churn but zero incremental passes (full=%d)",
						workers, on.ClusterPassesFull)
				}
				if tc.moveProb <= 0.05 && on.ObjectsReclustered >= off.ObjectsReclustered/2 {
					t.Fatalf("workers=%d: reclustered %d objects, from-scratch %d — no reuse",
						workers, on.ObjectsReclustered, off.ObjectsReclustered)
				}
				if tc.moveProb == 1 && workers == 1 && on.ClusterPassesIncremental != 0 {
					t.Fatalf("100%% churn must always fall back, got %d incremental passes",
						on.ClusterPassesIncremental)
				}
			}
		})
	}
}

// TestStreamerIncrementalMatchesFromScratch pins the streaming acceptance
// property: a ClusterSource with the incremental engine feeds a Monitor the
// same cluster stream as one forced onto the from-scratch path, so the
// discovered convoys are identical; LastPass proves the engine engaged.
func TestStreamerIncrementalMatchesFromScratch(t *testing.T) {
	p := Params{M: 3, K: 4, Eps: 4}
	db := churnWalkDB(t, 7, 35, 120, 0.05)

	run := func(threshold float64) (Result, *ClusterSource) {
		t.Helper()
		src, err := NewClusterSource(p.ClusterKey())
		if err != nil {
			t.Fatal(err)
		}
		if threshold <= 0 {
			src.SetIncremental(0)
		}
		mon, err := NewMonitor(p)
		if err != nil {
			t.Fatal(err)
		}
		var out []Convoy
		lo, hi, _ := db.TimeRange()
		for tk := lo; tk <= hi; tk++ {
			ids, pts := db.SnapshotAt(tk)
			batch, err := mon.AdvanceClusters(tk, src.Snapshot(ids, pts))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, batch...)
		}
		out = append(out, mon.Close()...)
		return Canonicalize(out), src
	}

	got, on := run(DefaultChurnThreshold)
	want, off := run(0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental streaming diverged\n got %v\nwant %v", got, want)
	}
	if IncrementalDisabled() {
		t.Skipf("%s set: incremental path unavailable", NoIncrementalEnv)
	}
	if !on.Incremental() || off.Incremental() {
		t.Fatalf("Incremental() = %v/%v, want true/false", on.Incremental(), off.Incremental())
	}
	if inc, _ := on.LastPass(); !inc {
		t.Fatalf("low-churn stream: last pass should have been incremental")
	}
	if inc, recl := off.LastPass(); inc || recl == 0 {
		t.Fatalf("from-scratch source: LastPass = (%v, %d), want (false, population)", inc, recl)
	}
	// Batch ≡ streaming closes the loop: both incremental paths answer the
	// from-scratch CMC result.
	batch, err := NewQuery(WithParams(p), WithCMC()).Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("streaming and batch answers diverged\n got %v\nwant %v", got, batch)
	}
}

// TestSetIncrementalResetsState pins the knob semantics: toggling drops the
// engine state (next pass is full), and switching on is a no-op for
// non-default backends.
func TestSetIncrementalResetsState(t *testing.T) {
	if IncrementalDisabled() {
		t.Skipf("%s set", NoIncrementalEnv)
	}
	src, err := NewClusterSource(ClusterKey{Eps: 2, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := []model.ObjectID{0, 1, 2}
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	src.Snapshot(ids, pts)
	src.Snapshot(ids, pts)
	if inc, recl := src.LastPass(); !inc || recl != 0 {
		t.Fatalf("identical tick: LastPass = (%v, %d), want (true, 0)", inc, recl)
	}
	src.SetIncremental(0.5)
	src.Snapshot(ids, pts)
	if inc, _ := src.LastPass(); inc {
		t.Fatalf("pass right after SetIncremental must be full (fresh engine)")
	}
	src.SetIncremental(0)
	if src.Incremental() {
		t.Fatalf("SetIncremental(0) must disable the engine")
	}
	if got := src.Passes(); got != 3 {
		t.Fatalf("Passes = %d, want 3 (counting both modes)", got)
	}
}

// TestTickScanKernelDifferential drives the one tick-scan kernel through
// every way a CMC query can schedule it — batch Run and collected Seq ×
// workers × incremental on/off × whole-database or partitioned — and pins
// every cell to the serial from-scratch answer, which the small database
// additionally checks against the exhaustive-subset oracle. Parallel Seq
// runs the chunked scheduler at chunk length one; parallel Run at one
// contiguous range per worker.
func TestTickScanKernelDifferential(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, ticks  int
		p         Params
		withBrute bool
	}{
		{"oracle-sized", 10, 40, Params{M: 2, K: 3, Eps: 6}, true},
		{"population", 40, 160, Params{M: 3, K: 5, Eps: 4}, false},
	} {
		for _, moveProb := range []float64{0, 0.05, 1} {
			db := churnWalkDB(t, 42, tc.n, tc.ticks, moveProb)
			want, err := NewQuery(WithParams(tc.p), WithCMC(), WithIncremental(-1)).Run(context.Background(), db)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("%s churn=%g: fixture has no convoys; the comparison would be vacuous", tc.name, moveProb)
			}
			if tc.withBrute {
				if brute := bruteConvoys(t, db, tc.p); !want.Equal(brute) {
					t.Fatalf("%s churn=%g: serial from-scratch CMC = %v, oracle = %v", tc.name, moveProb, want, brute)
				}
			}
			for _, workers := range []int{1, 2, 4} {
				for _, fromScratch := range []bool{false, true} {
					for _, partitions := range []int{0, 3} {
						opts := []Option{WithParams(tc.p), WithCMC(), WithWorkers(workers), WithPartitions(partitions)}
						if fromScratch {
							opts = append(opts, WithIncremental(-1))
						}
						q := NewQuery(opts...)
						cell := fmt.Sprintf("%s churn=%g workers=%d fromScratch=%v partitions=%d",
							tc.name, moveProb, workers, fromScratch, partitions)
						got, err := q.Run(context.Background(), db)
						if err != nil {
							t.Fatalf("%s: Run: %v", cell, err)
						}
						if !got.Equal(want) {
							t.Fatalf("%s: Run = %v, want %v", cell, got, want)
						}
						streamed := collectSeq(t, q, context.Background(), db)
						if len(streamed) != len(want) || !Canonicalize(streamed).Equal(want) {
							t.Fatalf("%s: collected Seq = %v, want %v", cell, streamed, want)
						}
					}
				}
			}
		}
	}
}

// TestRefinementClustersThroughTheEngine pins the refinement step to the
// same per-tick kernel as the CMC scan: under the default threshold a CuTS*
// run's refinement windows are clustered by an engine (on a frozen database
// most of their passes come back incremental — something only an engine
// produces), under WithIncremental(-1) by the stateless path alone (no
// incremental pass anywhere: no source ever carried an engine), and nothing
// but the pass split differs — same convoys, same pass count, same
// refinement units, for every worker count.
func TestRefinementClustersThroughTheEngine(t *testing.T) {
	if IncrementalDisabled() {
		t.Skipf("%s set: incremental path unavailable", NoIncrementalEnv)
	}
	p := Params{M: 3, K: 5, Eps: 4}
	for _, moveProb := range []float64{0, 0.05, 1} {
		db := churnWalkDB(t, 42, 40, 160, moveProb)
		want, err := runCMC(db, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			on, onSt, err := runQuery(db, p, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			off, offSt, err := runQuery(db, p, WithWorkers(workers), WithIncremental(-1))
			if err != nil {
				t.Fatal(err)
			}
			if !on.Equal(want) || !off.Equal(want) {
				t.Fatalf("churn=%g workers=%d: CuTS* = %v (engine) / %v (stateless), CMC = %v", moveProb, workers, on, off, want)
			}
			if onSt.ClusterPasses != offSt.ClusterPasses || onSt.RefineUnits != offSt.RefineUnits || onSt.NumCandidates != offSt.NumCandidates {
				t.Fatalf("churn=%g workers=%d: work differs: passes %d vs %d, refine units %g vs %g, candidates %d vs %d", moveProb, workers,
					onSt.ClusterPasses, offSt.ClusterPasses, onSt.RefineUnits, offSt.RefineUnits, onSt.NumCandidates, offSt.NumCandidates)
			}
			if onSt.NumCandidates == 0 {
				t.Fatalf("churn=%g: fixture has no candidates; the comparison would be vacuous", moveProb)
			}
			if offSt.ClusterPassesIncremental != 0 || offSt.ClusterPassesFull != offSt.ClusterPasses {
				t.Fatalf("churn=%g workers=%d: WithIncremental(-1) made %d incremental passes of %d", moveProb, workers,
					offSt.ClusterPassesIncremental, offSt.ClusterPasses)
			}
			if moveProb == 0 && onSt.ClusterPassesIncremental == 0 {
				t.Fatalf("workers=%d: frozen database, yet no refinement pass was incremental (%d passes): refinement bypasses the engine",
					workers, onSt.ClusterPasses)
			}
		}
	}
}
