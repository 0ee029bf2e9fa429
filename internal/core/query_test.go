package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// queryAlgos enumerates the four paper algorithms as Query options.
var queryAlgos = []struct {
	name string
	opt  Option
}{
	{"cmc", WithCMC()},
	{"cuts", WithVariant(VariantCuTS)},
	{"cuts+", WithVariant(VariantCuTSPlus)},
	{"cuts*", WithVariant(VariantCuTSStar)},
}

// drainSeq collects a query's Seq and the error it ends with.
func drainSeq(ctx context.Context, q *Query, db *model.DB) ([]Convoy, error) {
	var out []Convoy
	for c, err := range q.Seq(ctx, db) {
		if err != nil {
			return out, err
		}
		out = append(out, c)
	}
	return out, nil
}

// A parallel stream is the batch scan, not a schedule of its own. On a frozen
// database (nobody moves) every tick but a source's first is an incremental
// pass, so the pass split counts the sources a scan built: a Seq collected to
// its end and a limited run must report what batch Run does at the same
// worker count — one full pass per chunk, the rest incremental — and all
// three must stay stateless under WithIncremental(-1).
func TestParallelStreamRunsTheBatchSchedule(t *testing.T) {
	const workers, chunks = 4, 5
	const ticks = (chunks-1)*scanChunk + 100 // the cap, not ⌈span/workers⌉, cuts this domain
	rows := make([][]geom.Point, 5)
	for o := range rows {
		at := geom.Pt(0.4*float64(o), 0) // o0..o2 ride together for good
		if o >= 3 {
			at = geom.Pt(100*float64(o), 0)
		}
		rows[o] = make([]geom.Point, ticks)
		for i := range rows[o] {
			rows[o][i] = at
		}
	}
	db := buildDB(t, 0, rows...)
	ctx := context.Background()
	passSplit := func(st Stats) [3]int64 {
		return [3]int64{st.ClusterPasses, st.ClusterPassesFull, st.ClusterPassesIncremental}
	}
	for _, tc := range []struct {
		name string
		opt  Option
		want [3]int64
	}{
		{"engine", WithIncremental(DefaultChurnThreshold), [3]int64{ticks, chunks, ticks - chunks}},
		{"stateless", WithIncremental(-1), [3]int64{ticks, ticks, 0}},
	} {
		query := func(st *Stats, extra ...Option) *Query {
			opts := []Option{WithParams(Params{M: 3, K: 5, Eps: 1}), WithCMC(), WithWorkers(workers), tc.opt, WithStats(st)}
			return NewQuery(append(opts, extra...)...)
		}
		var batch, seq, limited Stats
		if res, err := query(&batch).Run(ctx, db); err != nil || len(res) != 1 {
			t.Fatalf("%s: Run = %v, %v; want the one convoy", tc.name, res, err)
		}
		if got, err := drainSeq(ctx, query(&seq), db); err != nil || len(got) != 1 {
			t.Fatalf("%s: Seq yielded %v, %v; want the one convoy", tc.name, got, err)
		}
		if res, err := query(&limited, WithLimit(1)).Run(ctx, db); err != nil || len(res) != 1 {
			t.Fatalf("%s: limited Run = %v, %v; want the one convoy", tc.name, res, err)
		}
		if got := passSplit(batch); got != tc.want {
			t.Errorf("%s: Run passes/full/incremental = %v, want %v", tc.name, got, tc.want)
		}
		if got := passSplit(seq); got != passSplit(batch) {
			t.Errorf("%s: Seq passes/full/incremental = %v, Run's = %v", tc.name, got, passSplit(batch))
		}
		if got := limited.ClusterPassesIncremental > 0; got != (tc.want[2] > 0) {
			t.Errorf("%s: limited run made %d incremental passes of %d", tc.name, limited.ClusterPassesIncremental, limited.ClusterPasses)
		}
	}
}

// earlyConvoyDB builds a database whose only convoy closes near the start
// of a long time domain: o0 and o1 ride together for `togetherTicks`
// ticks, then separate while everyone keeps reporting until `total`.
func earlyConvoyDB(t *testing.T, togetherTicks, total int) *model.DB {
	t.Helper()
	rows := make([][]geom.Point, 2)
	for o := range rows {
		rows[o] = make([]geom.Point, total)
		for i := 0; i < total; i++ {
			y := 0.5 * float64(o)
			if i >= togetherTicks && o == 1 {
				y = 1000 // separated: convoy closes at tick togetherTicks
			}
			rows[o][i] = geom.Pt(float64(i), y)
		}
	}
	return buildDB(t, 0, rows...)
}

// earlyStopTicks is a tick domain on which the early-stop bound of the widest
// pool the tests below run (workers = 4) is a twentieth of a full scan.
const earlyStopTicks = 20 * (2*4 + 1) * scanChunk

// earlyStopBound is the bound the Seq doc comment states for a CMC scan that
// stops after folding consumed ticks: a serial scan is a plain loop and has
// clustered exactly those; a parallel one may have par.OrderedChunks' window
// of 2·workers + 1 chunks in flight beyond them.
func earlyStopBound(consumed, workers int) int64 {
	if workers <= 1 {
		return int64(consumed)
	}
	return int64(consumed + (2*workers+1)*scanChunk)
}

// Breaking out of Seq after the first convoy must abandon the scan: the
// clustering-pass meter stays within the scheduler's window of the break
// point instead of covering the whole time domain. This is the early-stop
// acceptance bound.
func TestSeqEarlyBreakDoesLessClusteringWork(t *testing.T) {
	const together, total = 5, earlyStopTicks
	db := earlyConvoyDB(t, together, total)
	p := Params{M: 2, K: 3, Eps: 1}
	for _, workers := range []int{1, 4} {
		var full, early Stats
		if _, err := NewQuery(WithParams(p), WithCMC(), WithWorkers(workers), WithStats(&full)).Run(context.Background(), db); err != nil {
			t.Fatal(err)
		}
		if full.ClusterPasses != int64(total) {
			t.Fatalf("workers=%d: full run made %d passes, want %d", workers, full.ClusterPasses, total)
		}
		q := NewQuery(WithParams(p), WithCMC(), WithWorkers(workers), WithStats(&early))
		var got []Convoy
		for c, err := range q.Seq(context.Background(), db) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, c)
			break
		}
		if len(got) != 1 || got[0].End != model.Tick(together-1) {
			t.Fatalf("workers=%d: first yield = %v, want the [0,%d] convoy", workers, got, together-1)
		}
		// The convoy closes at tick `together`, the (together+1)-th folded.
		bound := earlyStopBound(together+1, workers)
		if early.ClusterPasses > bound {
			t.Fatalf("workers=%d: early break still made %d passes (bound %d, full %d)",
				workers, early.ClusterPasses, bound, full.ClusterPasses)
		}
		if early.ClusterPasses >= full.ClusterPasses {
			t.Fatalf("workers=%d: early break did no less work: %d vs %d",
				workers, early.ClusterPasses, full.ClusterPasses)
		}
	}
}

// WithLimit must deliver the limited prefix and abandon the remaining
// work, for the streaming CuTS path too: the limited run's pass meter
// stays strictly below the full run's.
func TestWithLimitStopsCuTSRefinementEarly(t *testing.T) {
	// Group A convoys early, group B late; everyone reports over the whole
	// domain so the filter produces (at least) two candidate windows far
	// apart in start time.
	const total = 200
	rows := make([][]geom.Point, 4)
	for o := range rows {
		rows[o] = make([]geom.Point, total)
		for i := 0; i < total; i++ {
			base := 100.0 * float64(o)
			y := base
			switch {
			case o < 2 && i <= 10: // A together on [0,10]
				y = 0.3 * float64(o)
			case o >= 2 && i >= 150 && i <= 160: // B together on [150,160]
				y = 50 + 0.3*float64(o-2)
			}
			rows[o][i] = geom.Pt(float64(i), y)
		}
	}
	db := buildDB(t, 0, rows...)
	p := Params{M: 2, K: 3, Eps: 1}
	for _, algo := range queryAlgos[1:] { // the three CuTS variants
		var full, limited Stats
		fullRes, err := NewQuery(WithParams(p), algo.opt, WithLambda(5), WithStats(&full)).Run(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		if len(fullRes) != 2 {
			t.Fatalf("%s: fixture yields %d convoys, want 2: %v", algo.name, len(fullRes), fullRes)
		}
		if full.NumCandidates < 2 {
			t.Fatalf("%s: fixture produced %d candidates, need ≥ 2 for the early-stop claim", algo.name, full.NumCandidates)
		}
		got, err := NewQuery(WithParams(p), algo.opt, WithLambda(5), WithLimit(1), WithStats(&limited)).Run(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("%s: limit=1 returned %d convoys", algo.name, len(got))
		}
		if !got[0].Equal(fullRes[0]) {
			t.Fatalf("%s: limited answer %v is not the earliest convoy %v", algo.name, got[0], fullRes[0])
		}
		if limited.ClusterPasses >= full.ClusterPasses {
			t.Fatalf("%s: limit=1 did no less clustering work: %d vs %d",
				algo.name, limited.ClusterPasses, full.ClusterPasses)
		}
	}
}

// Cancelling mid-run must surface ctx.Err() with no more clustering done
// than the scheduler's window allows: the pass meter stops within the
// early-stop bound of the cancellation point instead of covering the whole
// domain. This is the cancellation-latency bound.
func TestSeqCancelLatencyBound(t *testing.T) {
	const together, total = 5, earlyStopTicks
	db := earlyConvoyDB(t, together, total)
	p := Params{M: 2, K: 3, Eps: 1}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var st Stats
		q := NewQuery(WithParams(p), WithCMC(), WithWorkers(workers), WithStats(&st))
		var seqErr error
		yields := 0
		for _, err := range q.Seq(ctx, db) {
			if err != nil {
				seqErr = err
				continue
			}
			yields++
			cancel() // cancel the moment the first convoy arrives
		}
		cancel()
		if yields != 1 {
			t.Fatalf("workers=%d: got %d convoys before cancellation", workers, yields)
		}
		if !errors.Is(seqErr, context.Canceled) {
			t.Fatalf("workers=%d: Seq error = %v, want context.Canceled", workers, seqErr)
		}
		bound := earlyStopBound(together+1, workers)
		if st.ClusterPasses > bound || st.ClusterPasses >= total {
			t.Fatalf("workers=%d: cancellation still made %d passes (bound %d, domain %d)",
				workers, st.ClusterPasses, bound, total)
		}
	}
}

// A cancelled Run returns the context error and no partial result, on
// every algorithm.
func TestRunPreCancelledReturnsError(t *testing.T) {
	db := earlyConvoyDB(t, 5, 30)
	p := Params{M: 2, K: 3, Eps: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range queryAlgos {
		res, err := NewQuery(WithParams(p), algo.opt).Run(ctx, db)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", algo.name, err)
		}
		if res != nil {
			t.Fatalf("%s: cancelled run returned a partial result: %v", algo.name, res)
		}
	}
}

// Invalid parameters fail Run and Seq up front with the validation error.
func TestQueryValidation(t *testing.T) {
	db := earlyConvoyDB(t, 3, 10)
	if _, err := NewQuery().Run(context.Background(), db); err == nil {
		t.Fatal("Run with unset parameters succeeded")
	}
	seen := false
	for _, err := range NewQuery(M(2)).Seq(context.Background(), db) {
		if err == nil {
			t.Fatal("Seq with unset parameters yielded a convoy")
		}
		seen = true
	}
	if !seen {
		t.Fatal("Seq with unset parameters yielded nothing")
	}
}

// A limited CMC run returns the earliest-closing convoys and they are
// members of the full canonical answer.
func TestWithLimitPrefixIsSubsetOfFullAnswer(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := randomDB(r, 8, 30)
	p := Params{M: 2, K: 2, Eps: 2}
	full, err := NewQuery(WithParams(p), WithCMC()).Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 2 {
		t.Skipf("fixture produced only %d convoys", len(full))
	}
	limited, err := NewQuery(WithParams(p), WithCMC(), WithLimit(2)).Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 2 {
		t.Fatalf("limit=2 returned %d convoys", len(limited))
	}
	for _, c := range limited {
		found := false
		for _, f := range full {
			if c.Equal(f) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("limited answer %v not in the full result %v", c, full)
		}
	}
}
