package core

import (
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// stageTimer aggregates where a parallel scan's time goes — the
// clustering work (summed across workers, so it can exceed the stage's
// wall time) and the sequential chaining fold — and flushes both totals
// into a span as accumulated attributes (cluster_ms / chain_ms).
// Attributes, not synthetic spans, keep the explain invariant "Σ child
// stage durations ≤ parent wall time" intact under parallelism. One timer
// serves a whole stage: every refinement window scan adds into the refine
// span's timer.
type stageTimer struct {
	sp      *trace.Span
	cluster atomic.Int64 // ns, summed across workers
	chain   atomic.Int64 // ns
}

// newStageTimer returns a timer bound to sp, or nil when sp is nil —
// the unsampled case, where callers skip all timing work.
func newStageTimer(sp *trace.Span) *stageTimer {
	if sp == nil {
		return nil
	}
	return &stageTimer{sp: sp}
}

// start returns the clock reading clustered and chained measure from; the
// unsampled (nil) timer never reads the clock.
func (tm *stageTimer) start() time.Time {
	if tm == nil {
		return time.Time{}
	}
	return time.Now()
}

// clustered adds the time since t0 to the clustering total. Safe on nil.
func (tm *stageTimer) clustered(t0 time.Time) {
	if tm != nil {
		tm.cluster.Add(int64(time.Since(t0)))
	}
}

// chained adds the time since t0 to the chaining total. Safe on nil.
func (tm *stageTimer) chained(t0 time.Time) {
	if tm != nil {
		tm.chain.Add(int64(time.Since(t0)))
	}
}

// flush folds the accumulated totals into the span. Safe on nil.
func (tm *stageTimer) flush() {
	if tm == nil {
		return
	}
	tm.sp.AddFloat("cluster_ms", float64(tm.cluster.Load())/1e6)
	tm.sp.AddFloat("chain_ms", float64(tm.chain.Load())/1e6)
}
