package model_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/model"
)

var sinkPts []geom.Point

// BenchmarkSnapshotSweep prices one pass over every snapshot of a database
// — what a CMC scan reads — by sweep cursor and by a SnapshotAt per tick,
// on the short, staggered trajectories of Truck and the long, static
// population of Commute.
func BenchmarkSnapshotSweep(b *testing.B) {
	for _, prof := range []datagen.Profile{datagen.Truck(0.3, 1), datagen.Commute(1, 1)} {
		db := prof.Generate()
		lo, hi, _ := db.TimeRange()
		n := model.TickSpan(lo, hi)
		b.Run(prof.Name+"/cursor", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				cur := db.Sweep(nil).Cursor()
				for i := int64(0); i < n; i++ {
					_, sinkPts = cur.At(lo + model.Tick(i))
				}
			}
		})
		b.Run(prof.Name+"/snapshot-at", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for i := int64(0); i < n; i++ {
					_, sinkPts = db.SnapshotAt(lo + model.Tick(i))
				}
			}
		})
	}
}
