package core

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/simplify"
)

// cattleParams are the ladder's cattle-cuts parameters.
var cattleParams = Params{M: 2, K: 27, Eps: 300}

// cutsStarInputs prepares what the CuTS* filter and refinement consume, as
// a query with automatic δ and λ would: the guideline's δ, the DP*
// simplification, the guideline's λ.
func cutsStarInputs(db *model.DB, p Params) ([]*simplify.Trajectory, FilterConfig) {
	delta := ComputeDelta(db, p.Eps)
	sts := simplifyAll(db, delta, simplify.DPStar)
	return sts, FilterConfig{Lambda: ComputeLambda(db, sts, p.K), Bound: VariantCuTSStar.Bound(), Delta: delta}
}

// BenchmarkComputeDelta prices the δ guideline (Section 7.4): a δ = 0
// Douglas–Peucker run over the sampled trajectory and the largest gap of
// its profile, on the ladder's cattle-cuts herd and on Cattle@1, the scale
// of the ROADMAP's CuTS-vs-CMC table.
func BenchmarkComputeDelta(b *testing.B) {
	for _, bc := range []struct {
		name string
		p    datagen.Profile
	}{
		{"herd", datagen.Cattle(0.15, 101)},
		{"cattle@1", datagen.Cattle(1, 101)},
	} {
		db := bc.p.Generate()
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if d := ComputeDelta(db, bc.p.Eps); d <= 0 {
					b.Fatalf("δ = %g", d)
				}
			}
		})
	}
}

// BenchmarkFilter prices the filter step alone — partition sweep,
// TRAJ-DBSCAN, candidate chaining — on prepared CuTS* inputs: Truck is many
// short partitions with a dozen polylines alive, Cattle few long ones with
// the whole herd alive, and Car and Taxi at full scale as AllProfiles(1, 1)
// draws them, each at its profile's own m, k and e: up to 83 polylines a
// partition on Car, and on Taxi the largest partitions of all, up to 463.
func BenchmarkFilter(b *testing.B) {
	profiles := datagen.AllProfiles(1, 1)
	car, taxi := profiles[2], profiles[3]
	for _, bc := range []struct {
		name string
		db   *model.DB
		p    Params
	}{
		{"truck", datagen.Truck(1, 1).Generate(), truckParams},
		{"cattle", datagen.Cattle(0.15, 101).Generate(), cattleParams},
		{"car", car.Generate(), Params{M: car.M, K: car.K, Eps: car.Eps}},
		{"taxi", taxi.Generate(), Params{M: taxi.M, K: taxi.K, Eps: taxi.Eps}},
	} {
		sts, fc := cutsStarInputs(bc.db, bc.p)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if cands := Filter(bc.db, bc.p, sts, fc); len(cands) == 0 {
					b.Fatal("no candidates")
				}
			}
			lo, hi, _ := bc.db.TimeRange()
			b.ReportMetric(float64(lambdaPartitions(lo, hi, fc.Lambda)), "partitions/op")
		})
	}
}

// BenchmarkRefine prices the refinement step alone on the candidates the
// CuTS* filter hands it for the ladder's cattle-cuts herd.
func BenchmarkRefine(b *testing.B) {
	db := datagen.Cattle(0.15, 101).Generate()
	sts, fc := cutsStarInputs(db, cattleParams)
	cands := Filter(db, cattleParams, sts, fc)
	b.Run("cattle", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if res := Refine(db, cattleParams, cands); len(res) == 0 {
				b.Fatal("no convoys")
			}
		}
		b.ReportMetric(float64(len(cands)), "candidates/op")
	})
}

// BenchmarkCattleCuTSStar is the library query under the ladder's
// cattle-cuts: CuTS* with automatic δ and λ — guideline, simplify, filter,
// refine — over one herd. Sibling of BenchmarkTruckCMC.
func BenchmarkCattleCuTSStar(b *testing.B) {
	db := datagen.Cattle(0.15, 101).Generate()
	q := NewQuery(WithParams(cattleParams), WithVariant(VariantCuTSStar))
	b.ReportAllocs()
	for b.Loop() {
		if res, err := q.Run(context.Background(), db); err != nil || len(res) == 0 {
			b.Fatalf("%d convoys, %v", len(res), err)
		}
	}
	b.ReportMetric(float64(db.SumTrajLen()), "point-ticks/op")
}
