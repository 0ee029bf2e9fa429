// Benchmarks of the paper's algorithms on the synthetic dataset profiles:
// BenchmarkFigure12 times each algorithm on each profile (the paper's
// total-query-time comparison), BenchmarkFigure15 each simplification method
// on Cattle, and BenchmarkDiscover the façade's one-call path.
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
		p := core.Params{M: prof.M, K: prof.K, Eps: prof.Eps}
		b.Run(prof.Name+"/CMC", func(b *testing.B) {
			q := core.NewQuery(core.WithParams(p), core.WithCMC())
			for i := 0; i < b.N; i++ {
				if _, err := q.Run(context.Background(), db); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, variant := range []core.Variant{core.VariantCuTS, core.VariantCuTSPlus, core.VariantCuTSStar} {
			variant := variant
			b.Run(prof.Name+"/"+variant.String(), func(b *testing.B) {
				q := core.NewQuery(core.WithParams(p), core.WithVariant(variant))
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
// method at the profile's tuned δ.
func BenchmarkFigure15(b *testing.B) {
	prof := datagen.Cattle(benchScale, benchSeed+100)
	db := prof.Generate()
	delta := core.ComputeDelta(db, prof.Eps)
	for _, m := range []simplify.Method{simplify.DP, simplify.DPPlus, simplify.DPStar} {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simplify.SimplifyAll(db, delta, m)
			}
		})
	}
}

// BenchmarkDiscover measures the façade's one-call path on a mid-size
// planted scenario — the number a library user would care about first.
func BenchmarkDiscover(b *testing.B) {
	sc := convoys.Scenario{
		Seed: 5, T: 400, World: 800, Speed: 3,
		Groups: []convoys.GroupSpec{
			{Size: 4, Start: 20, End: 250, Spacing: 2},
			{Size: 3, Start: 150, End: 390, Spacing: 2},
		},
		Background: 40,
		KeepProb:   0.9,
		SpanFrac:   [2]float64{0.4, 1},
		Jitter:     0.3,
	}
	db := sc.Generate()
	p := convoys.Params{M: 3, K: 50, Eps: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := convoys.Discover(db, p); err != nil {
			b.Fatal(err)
		}
	}
}
