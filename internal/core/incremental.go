package core

import (
	"sync/atomic"

	"repro/internal/increment"
)

// Incremental per-tick clustering: a ClusterSource — driven by a feed, by
// the CMC scan or by a CuTS refinement window — keeps the previous tick's
// neighborhood structure (internal/increment) and re-clusters only the
// objects that moved, appeared or vanished — plus their affected
// neighborhoods — falling back to a from-scratch pass whenever the fraction
// of dirty objects exceeds a churn threshold (≤ 0: every pass is full).
// The answers are identical either way; only the work changes. Every
// source over the default DBSCAN backend carries the engine; other backends
// define their own density notion and are asked afresh at every tick.

// DefaultChurnThreshold is the dirty-object fraction above which the
// incremental engine abandons patching and rebuilds the tick from scratch
// (see increment.DefaultChurnThreshold).
const DefaultChurnThreshold = increment.DefaultChurnThreshold

// scanMeter aggregates the clustering-work counters of one discovery run.
// All fields are updated atomically: a parallel scan's sources bump them
// from worker goroutines.
type scanMeter struct {
	passes      int64 // every snapshot/partition clustering pass
	incremental int64 // CMC passes answered by the incremental engine
	reclustered int64 // objects actually re-clustered on those passes
}

// addPass records one snapshot clustering pass. Safe on nil.
func (m *scanMeter) addPass(p increment.Pass) {
	if m == nil {
		return
	}
	atomic.AddInt64(&m.passes, 1)
	if !p.Full {
		atomic.AddInt64(&m.incremental, 1)
	}
	atomic.AddInt64(&m.reclustered, int64(p.Reclustered))
}
