// Package par provides the two bounded worker-pool shapes the discovery
// pipeline is built from. Every stage (simplification, per-tick CMC
// clustering, per-partition filter clustering, candidate refinement) is
// embarrassingly parallel in its expensive part while the cheap chaining
// fold is inherently sequential, so two primitives cover everything:
//
//   - For — independent jobs with no ordering requirement beyond writing
//     to distinct result slots (simplification, partitioned mining);
//   - OrderedChunks — the one ordered fold: the index space is cut into
//     contiguous chunks, each chunk is produced sequentially on one worker
//     against a fresh state, and the results are *consumed strictly in
//     input order* by a single fold on the calling goroutine. The CMC tick
//     scan and the filter's partition scan run it with long chunks (a
//     stateful producer — the incremental clustering engine, the sweep
//     cursors over samples and over simplified segments, the filter's
//     scratch — must see consecutive indices to save anything); candidate
//     refinement runs it with chunks of one.
//
// Both degenerate to plain loops at workers ≤ 1, which is why serial and
// parallel runs of the pipeline are equal by construction: the same
// per-index results are folded by the same consumer in the same order.
//
// Both primitives are context-first: cancellation is observed between
// jobs (serial) or between job pickups (parallel), so an aborted run
// returns after at most one in-flight job per worker. The ordered fold
// additionally stops early when its consumer declines further results —
// the hook streaming consumers use to abandon a scan mid-way.
package par

import (
	"context"
	"sync"

	"repro/internal/trace"
)

// annotate stamps the context's active trace span (if any) with the
// pool's resolved fan-out, so a stage span shows how parallel its
// expensive part actually ran. A nil span makes this free, keeping the
// untraced pools allocation-clean.
func annotate(ctx context.Context, jobs, workers int) {
	if sp := trace.FromContext(ctx); sp != nil {
		sp.Int("par_workers", int64(workers)).Int("par_jobs", int64(jobs))
	}
}

// norm resolves a requested worker count against the job count: values
// ≤ 0 mean "serial" (1), and more workers than jobs are pointless.
func norm(workers, jobs int) int {
	if workers < 1 {
		workers = 1
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For runs fn(i) for i in [0, n) on the given number of worker goroutines.
// fn must only touch state owned by index i (e.g. a distinct result slot).
// With workers ≤ 1 it degenerates to a plain loop. Cancelling ctx stops
// the run between jobs; For then returns ctx.Err() after every in-flight
// job has finished (results for unstarted indices are simply absent).
func For(ctx context.Context, n, workers int, fn func(i int)) error {
	workers = norm(workers, n)
	annotate(ctx, n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain without running; the feeder is stopping
				}
				fn(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	return ctx.Err()
}

// OrderedChunks is the ordered fold: the index space [0, n) is cut into
// contiguous chunks of the given size, each chunk runs sequentially on one
// worker against a fresh state from newState, and consume(i, result) is
// called strictly in index order on the calling goroutine — a pipeline,
// not a barrier: consume(0) can run while a later chunk is still being
// produced, and consume may fold into unsynchronized state.
//
// Chunks exist for producers that exploit coherence between consecutive
// indices (the incremental per-tick clustering engine reuses the previous
// tick's neighborhoods), where per-index scattering would destroy exactly
// the locality being exploited: parallelism becomes per-worker runs of
// contiguous ranges, with one cold (from-scratch) index per chunk instead
// of per index. produce must be pure apart from its own state; chunk must be
// ≥ 1. With workers ≤ 1 (or a single chunk) the whole span runs on one
// state — a plain loop.
//
// The window of outstanding chunks is bounded — the one being consumed plus
// 2×workers queued behind it — which bounds memory, applies backpressure to
// the producers when the fold is slow, and bounds the work a stop abandons:
// at most (2×workers + 1)×chunk indices beyond those consumed were produced.
// consume returns whether the fold should continue; returning false
// abandons the remaining indices (in-flight produce calls finish and their
// results are discarded) and OrderedChunks returns nil. Cancelling ctx has
// the same draining behavior but returns ctx.Err(). Either way the call
// returns within roughly one produce per worker of the stop signal.
func OrderedChunks[S, T any](ctx context.Context, n, workers, chunk int, newState func() S, produce func(s S, i int) T, consume func(i int, v T) bool) error {
	if n <= 0 {
		return nil
	}
	nchunks := (n + chunk - 1) / chunk
	workers = norm(workers, nchunks)
	annotate(ctx, n, workers)
	if workers <= 1 {
		s := newState()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if !consume(i, produce(s, i)) {
				return nil
			}
		}
		return nil
	}
	// pctx tears the pool down on external cancellation or when the
	// consumer declines further results.
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type job struct {
		lo, hi int
		out    chan T
	}
	jobs := make(chan job)
	order := make(chan job, 2*workers) // in-order chunk slots; caps the window
	go func() {
		defer close(jobs)
		defer close(order)
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			// The result channel buffers the whole chunk, so a producer
			// never blocks on a consumer that is tearing down.
			j := job{lo: lo, hi: hi, out: make(chan T, hi-lo)}
			select {
			case order <- j:
			case <-pctx.Done():
				return
			}
			select {
			case jobs <- j:
			case <-pctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				s := newState()
				for i := j.lo; i < j.hi; i++ {
					if pctx.Err() != nil {
						j.out <- *new(T) // buffered: never blocks
						continue
					}
					j.out <- produce(s, i)
				}
			}
		}()
	}
	var ret error
	live := true
	consumed := 0
	for j := range order {
		for i := j.lo; i < j.hi; i++ {
			if !live {
				select { // tearing down: discard without ever blocking
				case <-j.out:
				default:
				}
				continue
			}
			select {
			case v := <-j.out:
				if err := ctx.Err(); err != nil {
					ret, live = err, false
					cancel()
				} else if !consume(i, v) {
					live = false
					cancel()
				} else {
					consumed++
				}
			case <-ctx.Done():
				ret, live = ctx.Err(), false
				cancel()
			}
		}
	}
	wg.Wait()
	if ret == nil && live && consumed < n {
		// The feeder tore down before every chunk was enqueued (e.g. a
		// pre-cancelled ctx): surface the cancellation. A run whose n
		// results were all consumed returns nil even if ctx expired at the
		// very end — exactly like the serial branch, so worker count never
		// decides whether a completed run counts as cancelled.
		ret = ctx.Err()
	}
	return ret
}
