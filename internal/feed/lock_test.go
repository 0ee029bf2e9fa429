package feed

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TestFeedStartsNoGoroutine: a feed's operations run on their callers'
// goroutines, so 32 in-memory and 32 durable feeds, created and fed a
// tick each, leave the goroutine count where it was. The durable feeds log
// under FsyncNever: under FsyncInterval each log keeps its own
// interval-fsync goroutine (wal.Log's, not the feed's).
func TestFeedStartsNoGoroutine(t *testing.T) {
	ctx := context.Background()
	base := runtime.NumGoroutine()
	mem := NewRegistry(Config{})
	defer mem.CloseAll()
	durable := NewRegistry(Config{WALDir: t.TempDir(), WAL: wal.Options{Fsync: wal.FsyncNever}})
	defer durable.CloseAll()
	for i := range 32 {
		for _, r := range []*Registry{mem, durable} {
			f, err := r.Create(fmt.Sprintf("f%d", i), core.Params{M: 2, K: 2, Eps: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Ingest(ctx, []wire.TickBatch{pair(0)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > base {
		t.Fatalf("%d goroutines beside 64 live feeds, %d before them", n, base)
	}
}

// TestCancelledIngestLeavesNoTrace: a caller whose context ends while
// another holds the feed gets context.Canceled, and nothing of its batch
// runs — no tick, no label, no log record — so posting the same batch
// again afterwards is accepted.
func TestCancelledIngestLeavesNoTrace(t *testing.T) {
	ctx := context.Background()
	r := NewRegistry(Config{WALDir: t.TempDir()})
	defer r.CloseAll()
	f, err := r.Create("fleet", core.Params{M: 2, K: 2, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Ingest(ctx, []wire.TickBatch{pair(0)}); err != nil {
		t.Fatal(err)
	}
	batch := []wire.TickBatch{pair(1, wire.Position{ID: "late", X: 1, Y: 0.25})}

	if err := f.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := f.Ingest(waitCtx, batch)
		done <- err
	}()
	cancel()
	err = <-done
	f.release()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ingest while the feed is held, then cancelled = %v, want context.Canceled", err)
	}

	st, err := f.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ticks != 1 || st.Objects != 2 {
		t.Errorf("status after the cancelled ingest = %d ticks, %d objects; want 1, 2", st.Ticks, st.Objects)
	}
	ws, err := f.WALStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Records != 1 {
		t.Errorf("log after the cancelled ingest holds %d records, want 1", ws.Records)
	}
	if resp, err := f.Ingest(ctx, batch); err != nil || resp.Accepted != 1 {
		t.Fatalf("the same batch posted again = %+v, %v; want it accepted", resp, err)
	}
}
