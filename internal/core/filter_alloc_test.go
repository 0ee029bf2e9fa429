//go:build !race

package core

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// TestFilterSteadyStateAllocs pins what a λ-partition costs the allocator
// once a worker's scratch has grown its buffers: nothing at all when the
// partition yields no cluster (fewer than m polylines alive, or none of them
// close), and the two allocations of the cluster lists it hands on — their
// arena and the list of lists — when it does. The cursor, the polylines,
// the clipped segments, the sweep order and the neighbor lists are all reset,
// not rebuilt. Truck under CuTS*: 3 492 partitions, about a dozen polylines
// alive in each. (Not under -race, whose instrumentation perturbs allocation
// counts.)
func TestFilterSteadyStateAllocs(t *testing.T) {
	db := datagen.Truck(1, 1).Generate()
	sts, fc := cutsStarInputs(db, truckParams)
	lo, hi, _ := db.TimeRange()
	n := lambdaPartitions(lo, hi, fc.Lambda)
	s := newPartitionFilter(sts, truckParams, fc).scratch()

	var w0 model.Tick
	var alive int
	var clusters [][]model.ObjectID
	i := 0
	step := func() {
		w0 = lo + model.Tick(int64(i)*fc.Lambda)
		clusters = s.clusters(w0, min(w0+model.Tick(fc.Lambda)-1, hi))
		alive = len(s.cur.alive)
		i++
	}
	for i < n { // the scratch sees the domain once
		step()
	}

	// Again from the start, on the same buffers.
	s.cur.next, s.cur.alive = 0, s.cur.alive[:0]
	i = 0
	empty, clustered := 0, 0
	for i+1 < n {
		allocs := testing.AllocsPerRun(1, step) // one partition to settle, one measured
		switch {
		case clusters != nil:
			clustered++
			if allocs > 2 {
				t.Fatalf("partition at tick %d yields %d clusters and allocates %v times, want ≤ 2", w0, len(clusters), allocs)
			}
		case allocs != 0:
			t.Fatalf("partition at tick %d (%d polylines alive, m = %d) yields no cluster and allocates %v times, want 0", w0, alive, truckParams.M, allocs)
		case alive < truckParams.M:
			empty++
		}
	}
	if empty == 0 || clustered == 0 {
		t.Fatalf("measured %d partitions with fewer than m alive and %d that yield clusters: the workload misses a case", empty, clustered)
	}
}
