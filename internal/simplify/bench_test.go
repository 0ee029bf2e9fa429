package simplify

import (
	"context"
	"testing"

	"repro/internal/datagen"
)

// BenchmarkSimplify prices the simplification layer alone: SimplifyAllWorkers at
// the profile's own δ, once per method, over the ladder's cattle-cuts herd
// (13 trajectories of ≈ 26 k samples) and over Cattle@1 (13 of ≈ 175 k), the
// scale of the ROADMAP's CuTS-vs-CMC table.
func BenchmarkSimplify(b *testing.B) {
	for _, bc := range []struct {
		name string
		p    datagen.Profile
	}{
		{"herd", datagen.Cattle(0.15, 101)},
		{"cattle@1", datagen.Cattle(1, 101)},
	} {
		db := bc.p.Generate()
		for _, m := range []Method{DP, DPPlus, DPStar} {
			b.Run(bc.name+"/"+m.String(), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if sts, _ := SimplifyAllWorkers(context.Background(), db, bc.p.Delta, m, 1); len(sts) != db.Len() {
						b.Fatalf("%d simplified trajectories", len(sts))
					}
				}
				b.ReportMetric(float64(db.SumTrajLen()), "points/op")
			})
		}
	}
}
