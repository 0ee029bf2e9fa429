package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/wire"
)

// Unit coverage of the registry paths behind the HTTP handlers: the
// MaxFeeds cap, the shutdown gate, and the idle-eviction janitor's
// touch-vs-read semantics.

func testParams() core.Params { return core.Params{M: 2, K: 2, Eps: 1} }

func TestRegistryMaxFeedsSentinel(t *testing.T) {
	r := newRegistry(Config{MaxFeeds: 2}.withDefaults())
	defer r.CloseAll()
	for _, name := range []string{"a", "b"} {
		if _, err := r.Create(name, testParams()); err != nil {
			t.Fatal(err)
		}
	}
	_, err := r.Create("c", testParams())
	if !errors.Is(err, feed.ErrTooManyFeeds) {
		t.Fatalf("create over cap = %v, want ErrTooManyFeeds", err)
	}
	// Duplicate names and invalid params report their own sentinels.
	if _, err := r.Create("a", testParams()); !errors.Is(err, feed.ErrFeedExists) {
		t.Fatalf("duplicate create = %v, want ErrFeedExists", err)
	}
	var bre *badRequestError
	if _, err := r.Create("c", core.Params{}); !errors.As(err, &bre) {
		t.Fatalf("invalid params = %v, want badRequestError", err)
	}
	// Removing frees the slot.
	if _, err := r.Remove(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("c", testParams()); err != nil {
		t.Fatalf("create after remove: %v", err)
	}
	if _, err := r.Remove(context.Background(), "nope"); !errors.Is(err, feed.ErrNoFeed) {
		t.Fatalf("remove missing = %v, want ErrNoFeed", err)
	}
}

func TestRegistryCreateAfterCloseAll(t *testing.T) {
	r := newRegistry(Config{}.withDefaults())
	f, err := r.Create("a", testParams())
	if err != nil {
		t.Fatal(err)
	}
	r.CloseAll()
	if _, err := r.Create("b", testParams()); !errors.Is(err, feed.ErrClosing) {
		t.Fatalf("create after CloseAll = %v, want ErrClosing", err)
	}
	// The drained feed's worker is gone: operations fail with ErrFeedClosed.
	if _, err := f.Status(context.Background()); !errors.Is(err, feed.ErrFeedClosed) {
		t.Fatalf("status on closed feed = %v, want ErrFeedClosed", err)
	}
	if got := r.List(); len(got) != 0 {
		t.Fatalf("list after CloseAll = %d feeds", len(got))
	}
}

// testClock is a settable clock for the feed runtime.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestRegistryEvictIdle(t *testing.T) {
	clock := &testClock{t: time.Unix(1000, 0)}
	r := feed.NewRegistry(feed.Config{Now: clock.now})
	defer r.CloseAll()
	stale, err := r.Create("stale", testParams())
	if err != nil {
		t.Fatal(err)
	}
	// An hour passes; only the fresh feed is touched after it.
	clock.advance(time.Hour)
	fresh, err := r.Create("fresh", testParams())
	if err != nil {
		t.Fatal(err)
	}
	if n := r.EvictIdle(clock.now().Add(-time.Minute)); n != 1 {
		t.Fatalf("evicted %d feeds, want 1", n)
	}
	if _, err := r.Get("stale"); !errors.Is(err, feed.ErrNoFeed) {
		t.Fatalf("stale feed still registered: %v", err)
	}
	if _, err := fresh.Status(context.Background()); err != nil {
		t.Fatalf("fresh feed drained: %v", err)
	}
	// Eviction drained the victim like a DELETE.
	if _, err := stale.Ingest(context.Background(), []TickBatch{{T: 0}}); !errors.Is(err, feed.ErrFeedClosed) {
		t.Fatalf("ingest on evicted feed = %v, want ErrFeedClosed", err)
	}
}

// Status reads do not refresh the idle clock (dashboards polling statuses
// must not keep an abandoned feed alive), while ingestion does.
func TestIdleClockTouchSemantics(t *testing.T) {
	clock := &testClock{t: time.Unix(1000, 0)}
	r := feed.NewRegistry(feed.Config{Now: clock.now})
	defer r.CloseAll()
	f, err := r.Create("clock", testParams())
	if err != nil {
		t.Fatal(err)
	}
	created := clock.now()
	clock.advance(time.Hour)
	if _, err := f.Status(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := f.IdleSince(); !got.Equal(created) {
		t.Fatalf("status read touched the idle clock: %v", got)
	}
	if _, err := f.Ingest(context.Background(), []TickBatch{
		{T: 0, Positions: []wire.Position{{ID: "a", X: 0, Y: 0}}}}); err != nil {
		t.Fatal(err)
	}
	if got := f.IdleSince(); !got.Equal(clock.now()) {
		t.Fatalf("ingestion left the idle clock at %v, want %v", got, clock.now())
	}
}

// The janitor evicts a feed with a full monitor table and drains every
// monitor on the way out (no open convoy is lost to eviction).
func TestJanitorEvictsAndDrainsMonitorTable(t *testing.T) {
	srv := New(Config{IdleTimeout: 40 * time.Millisecond})
	defer srv.Close()
	f, err := srv.reg.Create("sleepy", testParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddMonitor(context.Background(), "second", core.Params{M: 2, K: 1, Eps: 1}); err != nil {
		t.Fatal(err)
	}
	for tick := int64(0); tick < 3; tick++ {
		if _, err := f.Ingest(context.Background(), []TickBatch{{T: tick, Positions: []wire.Position{
			{ID: "a", X: float64(tick), Y: 0}, {ID: "b", X: float64(tick), Y: 0.5}}}}); err != nil {
			t.Fatal(err)
		}
	}
	// A subscriber sees every event up to the eviction drain; its channel
	// closes when the feed dies.
	replayed, events, cancel, err := f.Subscribe(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	byMonitor := map[string]int{}
	for _, ev := range replayed {
		byMonitor[ev.Monitor]++
	}
	timeout := time.After(5 * time.Second)
	for done := false; !done; {
		select {
		case ev, ok := <-events:
			if done = !ok; ok {
				byMonitor[ev.Monitor]++
			}
		case <-timeout:
			t.Fatal("janitor never evicted and drained the feed")
		}
	}
	if _, err := srv.reg.Get("sleepy"); !errors.Is(err, feed.ErrNoFeed) {
		t.Fatalf("evicted feed still registered: %v", err)
	}
	// Both monitors' open convoys were drained into events before the
	// subscribers were cut.
	if byMonitor[DefaultMonitorID] != 1 || byMonitor["second"] != 1 {
		t.Fatalf("drained events by monitor = %v, want one each", byMonitor)
	}
}

// The path→digest memo is LRU-bounded: referencing ever-new paths evicts
// the coldest entry instead of growing without limit, and recently used
// paths survive.
func TestPathDigestMemoBounded(t *testing.T) {
	e := newQueryEngine(Config{}.withDefaults())
	stat := fakeStat{mtime: time.Now(), size: 7}
	for i := 0; i < maxPathDigests+50; i++ {
		path := fmt.Sprintf("/data/db-%d.csv", i)
		e.storePathDigest(path, stat, fmt.Sprintf("digest-%d", i))
		// Keep path 0 hot so eviction hits colder entries instead.
		if i < maxPathDigests-1 {
			if _, ok := e.pathDigest("/data/db-0.csv", stat); !ok {
				t.Fatalf("hot path evicted after %d inserts", i)
			}
		}
	}
	if n := e.digests.len(); n != maxPathDigests {
		t.Fatalf("memo size = %d, want cap %d", n, maxPathDigests)
	}
	if _, ok := e.pathDigest("/data/db-1.csv", stat); ok {
		t.Fatal("cold entry survived past the cap")
	}
	if d, ok := e.pathDigest("/data/db-0.csv", stat); !ok || d != "digest-0" {
		t.Fatalf("hot entry evicted (ok=%v d=%q)", ok, d)
	}
	// A stat change invalidates the memo entry without removing it.
	if _, ok := e.pathDigest("/data/db-0.csv", fakeStat{mtime: stat.mtime.Add(time.Second), size: 7}); ok {
		t.Fatal("stale digest served after mtime change")
	}
}

// fakeStat is a minimal os.FileInfo for memo tests.
type fakeStat struct {
	mtime time.Time
	size  int64
}

func (f fakeStat) Name() string       { return "fake" }
func (f fakeStat) Size() int64        { return f.size }
func (f fakeStat) Mode() fs.FileMode  { return 0 }
func (f fakeStat) ModTime() time.Time { return f.mtime }
func (f fakeStat) IsDir() bool        { return false }
func (f fakeStat) Sys() any           { return nil }
