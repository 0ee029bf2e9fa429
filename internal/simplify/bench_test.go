package simplify

import (
	"testing"

	"repro/internal/datagen"
)

// BenchmarkSimplify prices the simplification layer alone: SimplifyAll over
// the ladder's cattle-cuts herd (13 trajectories of ≈ 26 k samples) at the
// profile's own δ, once per method.
func BenchmarkSimplify(b *testing.B) {
	p := datagen.Cattle(0.15, 101)
	db := p.Generate()
	for _, m := range []Method{DP, DPPlus, DPStar} {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if sts := SimplifyAll(db, p.Delta, m); len(sts) != db.Len() {
					b.Fatalf("%d simplified trajectories", len(sts))
				}
			}
			b.ReportMetric(float64(db.SumTrajLen()), "points/op")
		})
	}
}
