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
// of dirty objects exceeds a churn threshold. The answers are identical
// either way; only the work changes. The fast path applies to the default
// grid-DBSCAN backend only: other backends define their own density notion
// and always run from scratch.

// DefaultChurnThreshold is the dirty-object fraction above which the
// incremental engine abandons patching and rebuilds the tick from scratch
// (see increment.DefaultChurnThreshold).
const DefaultChurnThreshold = increment.DefaultChurnThreshold

// incrementalApplies is the one "does a source carry an engine?" decision:
// the engine reproduces exactly the default grid-DBSCAN backend's answers,
// so it applies to that backend at a positive churn threshold.
func incrementalApplies(c Clusterer, threshold float64) bool {
	_, isDBSCAN := c.(DBSCANClusterer)
	return isDBSCAN && threshold > 0
}

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
