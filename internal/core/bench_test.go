package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/par"
)

// truckParams are the ladder's truck-cmc parameters.
var truckParams = Params{M: 3, K: 180, Eps: 8}

// BenchmarkMonitorAdvance prices the chaining layer alone: Truck's cluster
// stream — every tick's clusters, computed once — replayed into one fresh
// monitor per iteration. Both sides of the repeat shortcut get a row:
//
//   - truck is the stream as a source hands it out; most of its ticks repeat
//     the list before, stable, so they skip the intersections;
//   - alternating is the same ticks with every odd tick's last cluster
//     listed twice — a duplicate the candidate set merges, so the answer is
//     the same — so no tick's list equals the one before: the shortcut never
//     applies, and the row prices the equality check on top of the full
//     step.
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
	alternating := make([][][]model.ObjectID, len(stream))
	for i, clusters := range stream {
		if i%2 == 1 && len(clusters) > 0 {
			clusters = append(slices.Clip(clusters), clusters[len(clusters)-1])
		}
		alternating[i] = clusters
	}
	for _, row := range []struct {
		name   string
		stream [][][]model.ObjectID
	}{{"truck", stream}, {"alternating", alternating}} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				mon := &Monitor{p: truckParams}
				convoys := 0
				for i, clusters := range row.stream {
					out, _ := mon.AdvanceClusters(lo+model.Tick(i), clusters) // cannot fail: ticks ascend
					convoys += len(out)
				}
				if convoys += len(mon.Close()); convoys == 0 {
					b.Fatal("the stream closed no convoy")
				}
			}
			b.ReportMetric(float64(len(row.stream)), "ticks/op")
		})
	}
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

// BenchmarkScanSchedule holds the one schedule to its word: Truck CMC as
// batch Run and as a Seq collected to its end, serial and at two workers.
// The two rows of a worker count are the same scan and must agree within
// noise (run-w1 is BenchmarkTruckCMC); before PR 18 a parallel Seq was
// scheduled a tick at a time and seq-w2 cost 60× run-w2.
//
// The plan/ rows are the table behind ROADMAP item 5: the paper's four
// profiles under CMC and CuTS*, serial and at two workers.
func BenchmarkScanSchedule(b *testing.B) {
	db := datagen.Truck(1, 1).Generate()
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		q := NewQuery(WithParams(truckParams), WithCMC(), WithWorkers(workers))
		b.Run(fmt.Sprintf("run-w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if res, err := q.Run(ctx, db); err != nil || len(res) == 0 {
					b.Fatalf("%d convoys, %v", len(res), err)
				}
			}
		})
		b.Run(fmt.Sprintf("seq-w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				convoys := 0
				for _, err := range q.Seq(ctx, db) {
					if err != nil {
						b.Fatal(err)
					}
					convoys++
				}
				if convoys == 0 {
					b.Fatal("the stream yielded no convoy")
				}
			}
		})
	}
	for _, prof := range datagen.AllProfiles(1, 1) {
		db := prof.Generate()
		for _, algo := range []struct {
			name string
			opt  Option
		}{{"cmc", WithCMC()}, {"cuts*", WithVariant(VariantCuTSStar)}} {
			for _, workers := range []int{1, 2} {
				q := NewQuery(WithParams(Params{M: prof.M, K: prof.K, Eps: prof.Eps}), algo.opt, WithWorkers(workers))
				b.Run(fmt.Sprintf("plan/%s/%s/w%d", strings.ToLower(prof.Name), algo.name, workers), func(b *testing.B) {
					b.ReportAllocs()
					for b.Loop() {
						if _, err := q.Run(ctx, db); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkScanChunk is the table behind the scanChunk constant: cmcScan's
// fold — cursor → source → monitor over par.OrderedChunks — at two workers
// with the chunk cap swept. Truck has a dozen objects alive and all of them
// moving, so a chunk costs its cold cursor walk and its share of scheduling;
// Commute has ≈ 285 alive at 10 % churn, so a chunk starts with a fresh
// engine and a full pass where every other tick patches the last — the
// cold-start cost on record.
func BenchmarkScanChunk(b *testing.B) {
	commute := datagen.Commute(1, 1)
	for _, ds := range []struct {
		name string
		db   *model.DB
		p    Params
	}{
		{"truck", datagen.Truck(1, 1).Generate(), truckParams},
		{"commute", commute.Generate(), Params{M: commute.M, K: commute.K, Eps: commute.Eps}},
	} {
		const workers = 2
		lo, hi, _ := ds.db.TimeRange()
		span := int(model.TickSpan(lo, hi))
		plan := ds.db.Sweep(nil)
		for _, limit := range []int{32, 128, 512, 4096} {
			b.Run(fmt.Sprintf("%s-w%d/cap%d", ds.name, workers, limit), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					mon := &Monitor{p: ds.p}
					convoys := 0
					err := par.OrderedChunks(context.Background(), span, workers, min((span+workers-1)/workers, limit),
						func() scanState {
							return scanState{src: newSource(ds.p.ClusterKey(), DefaultClusterer, DefaultChurnThreshold, nil), cur: plan.Cursor()}
						},
						func(s scanState, i int) [][]model.ObjectID {
							t := lo + model.Tick(i)
							ids, pts := s.cur.At(t)
							return s.src.Cluster(TickSnapshot{T: t, IDs: ids, Pts: pts})
						},
						func(i int, clusters [][]model.ObjectID) bool {
							out, _ := mon.AdvanceClusters(lo+model.Tick(i), clusters) // cannot fail: ticks ascend
							convoys += len(out)
							return true
						})
					if convoys += len(mon.Close()); err != nil || convoys == 0 {
						b.Fatalf("%d convoys, %v", convoys, err)
					}
				}
			})
		}
	}
}
