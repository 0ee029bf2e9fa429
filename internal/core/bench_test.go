package core

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// truckParams are the ladder's truck-cmc parameters.
var truckParams = Params{M: 3, K: 180, Eps: 8}

// BenchmarkMonitorAdvance prices the chaining layer alone: Truck's cluster
// stream — every tick's clusters, computed once — replayed into one fresh
// monitor per iteration.
func BenchmarkMonitorAdvance(b *testing.B) {
	db := datagen.Truck(1, 1).Generate()
	lo, hi, _ := db.TimeRange()
	src := newSource(truckParams.ClusterKey(), DefaultClusterer, DefaultChurnThreshold, nil)
	cur := db.Sweep(nil).Cursor()
	stream := make([][][]model.ObjectID, 0, model.TickSpan(lo, hi))
	for t := lo; t <= hi; t++ {
		ids, pts := cur.At(t)
		stream = append(stream, src.Snapshot(ids, pts))
	}
	b.ReportAllocs()
	for b.Loop() {
		mon := &Monitor{p: truckParams}
		convoys := 0
		for i, clusters := range stream {
			out, _ := mon.AdvanceClusters(lo+model.Tick(i), clusters) // cannot fail: ticks ascend
			convoys += len(out)
		}
		if convoys += len(mon.Close()); convoys == 0 {
			b.Fatal("the stream closed no convoy")
		}
	}
	b.ReportMetric(float64(len(stream)), "ticks/op")
}

// BenchmarkTruckCMC is the library query under the ladder's truck-cmc: the
// whole tick kernel — sweep, cluster, chain — over one Truck database.
func BenchmarkTruckCMC(b *testing.B) {
	db := datagen.Truck(1, 1).Generate()
	q := NewQuery(WithParams(truckParams), WithCMC())
	b.ReportAllocs()
	for b.Loop() {
		if res, err := q.Run(context.Background(), db); err != nil || len(res) == 0 {
			b.Fatalf("%d convoys, %v", len(res), err)
		}
	}
	b.ReportMetric(float64(db.SumTrajLen()), "point-ticks/op")
}
