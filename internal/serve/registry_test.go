package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"testing"
	"time"

	"repro/internal/core"
)

// Unit coverage of the registry paths behind the HTTP handlers: the
// MaxFeeds cap, the shutdown gate, and the idle-eviction janitor's
// touch-vs-read semantics.

func testParams() core.Params { return core.Params{M: 2, K: 2, Eps: 1} }

func TestRegistryMaxFeedsSentinel(t *testing.T) {
	r := newRegistry(Config{MaxFeeds: 2}.withDefaults())
	defer r.closeAll()
	for _, name := range []string{"a", "b"} {
		if _, err := r.create(name, testParams(), ""); err != nil {
			t.Fatal(err)
		}
	}
	_, err := r.create("c", testParams(), "")
	if !errors.Is(err, errTooManyFeeds) {
		t.Fatalf("create over cap = %v, want errTooManyFeeds", err)
	}
	// Duplicate names and invalid params report their own sentinels.
	if _, err := r.create("a", testParams(), ""); !errors.Is(err, errFeedExists) {
		t.Fatalf("duplicate create = %v, want errFeedExists", err)
	}
	var bre *badRequestError
	if _, err := r.create("c", core.Params{}, ""); !errors.As(err, &bre) {
		t.Fatalf("invalid params = %v, want badRequestError", err)
	}
	// Removing frees the slot.
	if _, err := r.remove(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.create("c", testParams(), ""); err != nil {
		t.Fatalf("create after remove: %v", err)
	}
	if _, err := r.remove(context.Background(), "nope"); !errors.Is(err, errNoFeed) {
		t.Fatalf("remove missing = %v, want errNoFeed", err)
	}
}

func TestRegistryCreateAfterCloseAll(t *testing.T) {
	r := newRegistry(Config{}.withDefaults())
	f, err := r.create("a", testParams(), "")
	if err != nil {
		t.Fatal(err)
	}
	r.closeAll()
	if _, err := r.create("b", testParams(), ""); !errors.Is(err, errServerClosing) {
		t.Fatalf("create after closeAll = %v, want errServerClosing", err)
	}
	// The drained feed's worker is gone: operations fail with errFeedClosed.
	if _, err := f.status(context.Background()); !errors.Is(err, errFeedClosed) {
		t.Fatalf("status on closed feed = %v, want errFeedClosed", err)
	}
	if got := r.list(); len(got) != 0 {
		t.Fatalf("list after closeAll = %d feeds", len(got))
	}
}

func TestRegistryEvictIdle(t *testing.T) {
	r := newRegistry(Config{}.withDefaults())
	defer r.closeAll()
	stale, err := r.create("stale", testParams(), "")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := r.create("fresh", testParams(), "")
	if err != nil {
		t.Fatal(err)
	}
	// Age the stale feed past the cutoff; the fresh one just touched.
	stale.lastActive.Store(time.Now().Add(-time.Hour).UnixNano())
	if n := r.evictIdle(time.Now().Add(-time.Minute)); n != 1 {
		t.Fatalf("evicted %d feeds, want 1", n)
	}
	if _, err := r.get("stale"); !errors.Is(err, errNoFeed) {
		t.Fatalf("stale feed still registered: %v", err)
	}
	if _, err := fresh.status(context.Background()); err != nil {
		t.Fatalf("fresh feed drained: %v", err)
	}
	// Eviction drained the victim like a DELETE.
	if _, err := stale.ingest(context.Background(), []TickBatch{{T: 0}}); !errors.Is(err, errFeedClosed) {
		t.Fatalf("ingest on evicted feed = %v, want errFeedClosed", err)
	}
}

// Status reads do not refresh the idle clock (dashboards polling statuses
// must not keep an abandoned feed alive), while ingestion does.
func TestIdleClockTouchSemantics(t *testing.T) {
	cfg := Config{}.withDefaults()
	f, err := newFeed("clock", testParams(), core.DefaultClusterer, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close(context.Background())
	past := time.Now().Add(-time.Hour)
	f.lastActive.Store(past.UnixNano())
	if _, err := f.status(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := f.idleSince(); !got.Equal(past) {
		t.Fatalf("status read touched the idle clock: %v", got)
	}
	if _, err := f.ingest(context.Background(), []TickBatch{
		{T: 0, Positions: []Position{{ID: "a", X: 0, Y: 0}}}}); err != nil {
		t.Fatal(err)
	}
	if got := f.idleSince(); !got.After(past) {
		t.Fatal("ingestion did not touch the idle clock")
	}
}

// The janitor evicts a feed with a full monitor table and drains every
// monitor on the way out (no open convoy is lost to eviction).
func TestJanitorEvictsAndDrainsMonitorTable(t *testing.T) {
	srv := New(Config{IdleTimeout: 40 * time.Millisecond})
	defer srv.Close()
	f, err := srv.reg.create("sleepy", testParams(), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.addMonitor(context.Background(), "second", core.Params{M: 2, K: 1, Eps: 1}, ""); err != nil {
		t.Fatal(err)
	}
	for tick := int64(0); tick < 3; tick++ {
		if _, err := f.ingest(context.Background(), []TickBatch{{T: tick, Positions: []Position{
			{ID: "a", X: float64(tick), Y: 0}, {ID: "b", X: float64(tick), Y: 0.5}}}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := srv.reg.get("sleepy"); errors.Is(err, errNoFeed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never evicted the feed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Both monitors' open convoys were drained into the history before the
	// subscribers were cut; the worker saw them as tagged events.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := f.status(context.Background()); errors.Is(err, errFeedClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("evicted feed never drained")
		}
		time.Sleep(10 * time.Millisecond)
	}
	byMonitor := map[string]int{}
	for _, ev := range f.history {
		byMonitor[ev.Monitor]++
	}
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
