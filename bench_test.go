// Benchmarks regenerating every table and figure of the paper's evaluation
// section (Table 3, Figures 12–17, Figure 19). Each BenchmarkTableX /
// BenchmarkFigureX times the corresponding experiment end to end on the
// synthetic dataset profiles at a reduced time scale; BenchmarkFigure12 and
// BenchmarkFigure15 additionally expose per-dataset / per-method
// sub-benchmarks so `-bench` output shows the paper's series directly.
//
// To print the paper-style tables (rather than time them), run
//
//	go run ./cmd/benchrunner -exp all -scale 0.1
package convoys_test

import (
	"context"
	"io"
	"testing"

	convoys "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/expr"
	"repro/internal/simplify"
)

// benchScale keeps the full `go test -bench=.` run in the minutes range
// while preserving every experiment's relative shape.
const benchScale = 0.02

const benchSeed = 1

func benchOptions() expr.Options {
	return expr.Options{Scale: benchScale, Seed: benchSeed, Out: io.Discard}
}

func BenchmarkTable3(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := expr.Table3(o); err != nil {
			b.Fatal(err)
		}
	}
}

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

func BenchmarkFigure13(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := expr.Figure13(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure14(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := expr.Figure14(o); err != nil {
			b.Fatal(err)
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
	b.Run("harness", func(b *testing.B) {
		o := benchOptions()
		for i := 0; i < b.N; i++ {
			if err := expr.Figure15(o); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFigure16(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := expr.Figure16(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure17(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := expr.Figure17(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure19(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := expr.Figure19(o); err != nil {
			b.Fatal(err)
		}
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
