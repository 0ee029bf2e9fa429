package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
)

// workerCounts is the sweep every equivalence property runs: serial, small
// pools, and everything the machine has.
func workerCounts() []int { return []int{1, 2, 4, runtime.NumCPU()} }

// The central contract of the parallel pipeline: for CMC and all three
// CuTS variants, every worker count returns exactly the serial answer.
// Run with -race this also shakes out data races between the clustering
// workers and the sequential chaining fold.
func TestPropParallelPipelineEqualsSerial(t *testing.T) {
	r := rand.New(rand.NewSource(1117))
	for iter := 0; iter < 10; iter++ {
		db := randomDB(r, 4+r.Intn(4), 10+r.Intn(10))
		p := Params{M: 2, K: int64(2 + r.Intn(3)), Eps: 1 + r.Float64()*2}

		serialCMC, err := runCMC(db, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range workerCounts() {
			got, _, err := runQuery(db, p, WithCMC(), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(serialCMC) {
				t.Fatalf("CMC workers=%d:\nparallel = %v\nserial   = %v", workers, got, serialCMC)
			}
		}

		for _, variant := range []Variant{VariantCuTS, VariantCuTSPlus, VariantCuTSStar} {
			serial, serialStats, err := runQuery(db, p, WithVariant(variant), WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			if serialStats.Workers != 1 {
				t.Fatalf("%v: serial stats workers = %d", variant, serialStats.Workers)
			}
			for _, workers := range workerCounts() {
				par, stats, err := runQuery(db, p, WithVariant(variant), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if !par.Equal(serial) {
					t.Fatalf("%v workers=%d:\nparallel = %v\nserial   = %v", variant, workers, par, serial)
				}
				if stats.Workers != workers {
					t.Errorf("%v: stats workers = %d, want %d", variant, stats.Workers, workers)
				}
				if stats.NumCandidates != serialStats.NumCandidates {
					t.Errorf("%v workers=%d: candidates = %d, serial = %d",
						variant, workers, stats.NumCandidates, serialStats.NumCandidates)
				}
			}
		}
	}
}

// The pipeline primitives themselves are unit-tested in internal/par; the
// tests here pin the discovery-level contract (parallel ≡ serial).

// Parallel refinement must return exactly the serial answer.
func TestPropParallelRefineEqualsSerial(t *testing.T) {
	r := rand.New(rand.NewSource(909))
	for iter := 0; iter < 15; iter++ {
		db := randomDB(r, 4+r.Intn(4), 10+r.Intn(10))
		p := Params{M: 2, K: int64(2 + r.Intn(3)), Eps: 1 + r.Float64()*2}
		serial, _, err := runQuery(db, p, WithVariant(VariantCuTSStar), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, runtime.NumCPU()} {
			parallel, _, err := runQuery(db, p, WithVariant(VariantCuTSStar), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if !parallel.Equal(serial) {
				t.Fatalf("workers=%d:\nparallel = %v\nserial   = %v", workers, parallel, serial)
			}
		}
	}
}

func TestRefineParallelEdgeCases(t *testing.T) {
	db := buildDB(t, 0,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0)},
		[]geom.Point{geom.Pt(0, 0.5), geom.Pt(1, 0.5), geom.Pt(2, 0.5), geom.Pt(3, 0.5)},
	)
	p := Params{M: 2, K: 3, Eps: 1}
	refine := func(cands []Candidate, workers int) Result {
		var all []Convoy
		err := refineScan(context.Background(), db, p, cands, workers, DefaultChurnThreshold, nil, func(_ int, raw []Convoy) bool {
			all = append(all, raw...)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return Canonicalize(all)
	}
	// No candidates.
	if got := refine(nil, 8); len(got) != 0 {
		t.Errorf("no candidates produced %v", got)
	}
	// One candidate with more workers than work.
	c := Candidate{Objects: ids(0, 1), Support: ids(0, 1), Start: 0, End: 3}
	got := refine([]Candidate{c}, 16)
	if len(got) != 1 || got[0].Lifetime() != 4 {
		t.Errorf("single candidate refine = %v", got)
	}
	// Duplicated candidates across many workers still canonicalize.
	got = refine([]Candidate{c, c, c, c, c}, 3)
	if len(got) != 1 {
		t.Errorf("duplicate candidates refine = %v", got)
	}
}
