// Benchmarks of the paper's algorithms on the synthetic dataset profiles:
// BenchmarkFigure12 times each algorithm on each profile (the paper's
// total-query-time comparison), BenchmarkFigure15 each simplification method
// on Cattle, and BenchmarkDiscover the façade's default query.
//
// The paper's evaluation itself — the claims behind Table 3 and Figures
// 12–19, with their tables under -v — is a test:
//
//	go test -v -run TestPaperClaims ./internal/oracle
package convoys_test

import (
	"context"
	"testing"

	convoys "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/simplify"
)

// benchScale keeps the full `go test -bench=.` run short while preserving
// every profile's relative shape.
const benchScale = 0.02

const benchSeed = 1

// BenchmarkFigure12 times each discovery algorithm on each dataset profile
// (the paper's total-query-time comparison). Data generation is excluded
// from the timing.
func BenchmarkFigure12(b *testing.B) {
	for _, prof := range datagen.AllProfiles(benchScale, benchSeed) {
		db := prof.Generate()
		algos := []struct {
			name string
			opt  convoys.QueryOption
		}{
			{"CMC", convoys.WithCMC()},
			{convoys.CuTSVariant.String(), convoys.WithVariant(convoys.CuTSVariant)},
			{convoys.CuTSPlusVariant.String(), convoys.WithVariant(convoys.CuTSPlusVariant)},
			{convoys.CuTSStarVariant.String(), convoys.WithVariant(convoys.CuTSStarVariant)},
		}
		for _, algo := range algos {
			b.Run(prof.Name+"/"+algo.name, func(b *testing.B) {
				q := convoys.NewQuery(convoys.M(prof.M), convoys.K(prof.K), convoys.Eps(prof.Eps), algo.opt)
				for i := 0; i < b.N; i++ {
					if _, err := q.Run(context.Background(), db); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure15 times each simplification method on the Cattle profile
// (the paper's vertex-reduction/time comparison), one sub-benchmark per
// method at the profile's tuned δ. Simplification is not part of the
// facade, so this one drives internal/simplify directly.
func BenchmarkFigure15(b *testing.B) {
	prof := datagen.Cattle(benchScale, benchSeed+100)
	db := prof.Generate()
	delta := core.ComputeDelta(db, prof.Eps)
	for _, m := range []simplify.Method{simplify.DP, simplify.DPPlus, simplify.DPStar} {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simplify.SimplifyAllWorkers(context.Background(), db, delta, m, 1)
			}
		})
	}
}

// BenchmarkDiscover measures the façade's default query (CuTS* with the
// automatic δ/λ guidelines) on a mid-size planted scenario — the number a
// library user would care about first.
func BenchmarkDiscover(b *testing.B) {
	sc := datagen.Scenario{
		Seed: 5, T: 400, World: 800, Speed: 3,
		Groups: []datagen.GroupSpec{
			{Size: 4, Start: 20, End: 250, Spacing: 2},
			{Size: 3, Start: 150, End: 390, Spacing: 2},
		},
		Background: 40,
		KeepProb:   0.9,
		SpanFrac:   [2]float64{0.4, 1},
		Jitter:     0.3,
	}
	db := sc.Generate()
	q := convoys.NewQuery(convoys.M(3), convoys.K(50), convoys.Eps(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Run(context.Background(), db); err != nil {
			b.Fatal(err)
		}
	}
}
