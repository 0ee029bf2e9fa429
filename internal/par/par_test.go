package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// pipeline is OrderedChunks as the filter's partition scan and candidate
// refinement call it: chunks of one index and no producer state.
func pipeline[T any](ctx context.Context, n, workers int, produce func(i int) T, consume func(i int, v T) bool) error {
	return OrderedChunks(ctx, n, workers, 1,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) T { return produce(i) },
		consume)
}

// The pipeline must deliver results to the consumer strictly in index
// order no matter how the workers interleave.
func TestOrderedPipelineOrdering(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 500
		var produced atomic.Int64
		next := 0
		err := pipeline(context.Background(), n, workers,
			func(i int) int {
				produced.Add(1)
				return i * i
			},
			func(i int, v int) bool {
				if i != next {
					t.Fatalf("workers=%d: consumed index %d, want %d", workers, i, next)
				}
				if v != i*i {
					t.Fatalf("workers=%d: index %d carried %d", workers, i, v)
				}
				next++
				return true
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if next != n || produced.Load() != n {
			t.Fatalf("workers=%d: consumed %d, produced %d (want %d)", workers, next, produced.Load(), n)
		}
	}
}

func TestOrderedPipelineEmpty(t *testing.T) {
	err := pipeline(context.Background(), 0, 4,
		func(i int) int { t.Fatal("produce called"); return 0 },
		func(i int, v int) bool { t.Fatal("consume called"); return true })
	if err != nil {
		t.Fatal(err)
	}
}

// A consumer that declines further results stops the pipeline early: no
// index past the stop point is consumed and only a bounded window of extra
// jobs is produced.
func TestOrderedPipelineEarlyStop(t *testing.T) {
	for _, workers := range []int{1, 4, 9} {
		const n, stopAt = 1000, 10
		var produced atomic.Int64
		consumed := 0
		err := pipeline(context.Background(), n, workers,
			func(i int) int { produced.Add(1); return i },
			func(i int, v int) bool {
				consumed++
				return consumed < stopAt
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if consumed != stopAt {
			t.Fatalf("workers=%d: consumed %d, want %d", workers, consumed, stopAt)
		}
		// Serial produces exactly stopAt; parallel may overrun by the
		// outstanding window (~2×workers) plus one in-flight per worker.
		if max := int64(stopAt + 3*workers + 1); produced.Load() > max {
			t.Fatalf("workers=%d: produced %d jobs after stopping at %d (cap %d)",
				workers, produced.Load(), stopAt, max)
		}
	}
}

// Cancelling the context mid-scan aborts the pipeline with ctx.Err() and
// stops consuming at the cancellation point.
func TestOrderedPipelineCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n, cancelAt = 1000, 7
		ctx, cancel := context.WithCancel(context.Background())
		consumedAfter := 0
		err := pipeline(ctx, n, workers,
			func(i int) int { return i },
			func(i int, v int) bool {
				if i == cancelAt {
					cancel()
				}
				if i > cancelAt {
					consumedAfter++
				}
				return true
			})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if consumedAfter != 0 {
			t.Fatalf("workers=%d: consumed %d results after cancellation", workers, consumedAfter)
		}
	}
}

// A pre-cancelled context aborts before any job runs.
func TestOrderedPipelinePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		err := pipeline(ctx, 100, workers,
			func(i int) int { return i },
			func(i int, v int) bool { t.Fatal("consume called"); return true })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 32} {
		const n = 300
		hits := make([]atomic.Int32, n)
		if err := For(context.Background(), n, workers, func(i int) { hits[i].Add(1) }); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, got)
			}
		}
	}
}

// Cancelling For stops scheduling new jobs; every job that did run ran to
// completion and the call reports ctx.Err().
func TestForCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 10000
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := For(ctx, n, workers, func(i int) {
			if ran.Add(1) == 5 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got >= n {
			t.Fatalf("workers=%d: all %d jobs ran despite cancellation", workers, got)
		}
	}
}

// The pipeline must not deadlock when cancellation races a slow producer:
// the consumer abandons the in-flight result instead of waiting for it.
func TestOrderedPipelineCancelWhileProducing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- pipeline(ctx, 50, 4,
			func(i int) int {
				if i > 0 {
					<-release // jobs past the first hang until released
				}
				return i
			},
			func(i int, v int) bool {
				cancel() // cancel while later produces are still blocked
				return true
			})
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline deadlocked after cancellation")
	}
}

// chunkTag records which state produced which index, for the contiguity
// assertions below.
type chunkTag struct {
	state int64
	index int
}

func TestOrderedChunksOrderingAndContiguity(t *testing.T) {
	for _, tc := range []struct{ n, workers, chunk int }{
		{100, 1, 100}, {100, 4, 7}, {100, 4, 25}, {5, 8, 2}, {1, 3, 10}, {64, 3, 64},
	} {
		var nextState int64
		newState := func() *int64 {
			id := atomic.AddInt64(&nextState, 1)
			return &id
		}
		var got []chunkTag
		err := OrderedChunks(context.Background(), tc.n, tc.workers, tc.chunk, newState,
			func(s *int64, i int) chunkTag { return chunkTag{state: *s, index: i} },
			func(i int, v chunkTag) bool {
				got = append(got, v)
				return true
			})
		if err != nil {
			t.Fatalf("%+v: err = %v", tc, err)
		}
		if len(got) != tc.n {
			t.Fatalf("%+v: consumed %d of %d", tc, len(got), tc.n)
		}
		for i, v := range got {
			if v.index != i {
				t.Fatalf("%+v: out-of-order consume: position %d got index %d", tc, i, v.index)
			}
		}
		// Every state must own exactly one contiguous index range: the
		// whole point of chunking is that a stateful producer sees
		// consecutive indices.
		ranges := map[int64][2]int{}
		for _, v := range got {
			r, ok := ranges[v.state]
			if !ok {
				ranges[v.state] = [2]int{v.index, v.index}
				continue
			}
			if v.index != r[1]+1 {
				t.Fatalf("%+v: state %d jumped from %d to %d", tc, v.state, r[1], v.index)
			}
			r[1] = v.index
			ranges[v.state] = r
		}
		if tc.workers <= 1 && len(ranges) != 1 {
			t.Fatalf("%+v: serial run used %d states, want 1", tc, len(ranges))
		}
	}
}

func TestOrderedChunksEarlyStop(t *testing.T) {
	var consumed int
	err := OrderedChunks(context.Background(), 1000, 4, 10,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) int { return i },
		func(i int, v int) bool {
			consumed++
			return i < 25
		})
	if err != nil {
		t.Fatalf("early stop must return nil, got %v", err)
	}
	if consumed != 26 {
		t.Fatalf("consumed %d results, want 26 (stop at index 25)", consumed)
	}
}

func TestOrderedChunksCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var consumed int
	err := OrderedChunks(ctx, 1000, 4, 10,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) int { return i },
		func(i int, v int) bool {
			consumed++
			if consumed == 20 {
				cancel()
			}
			return true
		})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if consumed >= 1000 {
		t.Fatalf("cancellation did not stop the scan (consumed %d)", consumed)
	}
}

func TestOrderedChunksPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := OrderedChunks(ctx, 100, 4, 10,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) int { return i },
		func(i int, v int) bool { return true })
	if err != context.Canceled {
		t.Fatalf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestOrderedChunksEmpty(t *testing.T) {
	called := false
	if err := OrderedChunks(context.Background(), 0, 4, 8,
		func() struct{} { called = true; return struct{}{} },
		func(_ struct{}, i int) int { return i },
		func(i int, v int) bool { return true }); err != nil {
		t.Fatalf("empty span: err = %v", err)
	}
	if called {
		t.Fatalf("empty span must not construct state")
	}
}
