package feed

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/tsio"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
)

var errDisk = errors.New("injected disk fault")

func pair(t model.Tick, extra ...wire.Position) wire.TickBatch {
	return wire.TickBatch{T: t, Positions: append([]wire.Position{
		{ID: "a", X: float64(t), Y: 0}, {ID: "b", X: float64(t), Y: 0.5}}, extra...)}
}

// TestInternClonesLabel: decoded labels are substrings of one copy of the
// request body, and the label table outlives requests — so after a tick the
// feed must hold equal labels that share no memory with the batch's.
func TestInternClonesLabel(t *testing.T) {
	r := NewRegistry(Config{})
	defer r.CloseAll()
	f, err := r.Create("f", core.Params{M: 2, K: 2, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	batches, err := wire.DecodeTicks([]byte(
		`{"t":1,"positions":[{"id":"alpha","x":0,"y":0},{"id":"beta","x":1,"y":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := f.Ingest(context.Background(), batches); err != nil || resp.Accepted != 1 {
		t.Fatalf("ingest = %+v, %v", resp, err)
	}
	sent := map[string]*byte{}
	for _, p := range batches[0].Positions {
		sent[p.ID] = unsafe.StringData(p.ID)
	}
	if err := f.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer f.release()
	if len(f.labels) != 2 || len(f.ids) != 2 {
		t.Errorf("feed interned %d labels / %d ids, want 2", len(f.labels), len(f.ids))
	}
	for _, label := range f.labels {
		if unsafe.StringData(label) == sent[label] {
			t.Errorf("label table entry %q points into the request body", label)
		}
	}
	for key := range f.ids {
		if unsafe.StringData(key) == sent[key] {
			t.Errorf("id map key %q points into the request body", key)
		}
	}
}

// TestStageTimingWithoutSpan: the stage timing applyBatch runs on every
// tick costs no allocation when the request carries no sampled span.
func TestStageTimingWithoutSpan(t *testing.T) {
	sp := trace.FromContext(context.Background())
	if allocs := testing.AllocsPerRun(100, func() {
		stageEnd(sp, "cluster_ms", stageStart(sp))
	}); allocs != 0 {
		t.Fatalf("unsampled stage timing allocates: %v allocs/op", allocs)
	}
}

// TestEvictionReleasesLogHandles: an evicted durable feed has closed its
// log and its journal — a write through either must fail rather than touch
// the files a future recovery owns — and left both on disk.
func TestEvictionReleasesLogHandles(t *testing.T) {
	cfg := Config{WALDir: t.TempDir()}
	r := NewRegistry(cfg)
	defer r.CloseAll()
	f, err := r.Create("fleet", core.Params{M: 2, K: 2, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Ingest(context.Background(), []wire.TickBatch{pair(0)}); err != nil {
		t.Fatal(err)
	}
	if n := r.EvictIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("evicted %d feeds, want 1", n)
	}
	if err := f.w.log.Append(tsio.TickBlock{T: 1}); err == nil {
		t.Error("append on an evicted feed's log succeeded; handle leaked")
	}
	if err := f.w.jnl.Append([]byte(`{}`)); err == nil {
		t.Error("append on an evicted feed's journal succeeded; handle leaked")
	}
	if !wal.Exists(LogDir(cfg.WALDir, "fleet"), cfg.WAL) {
		t.Error("eviction removed the log; it must only close handles")
	}
}

// TestInvalidNamesRefused: a name that is not one path segment is refused
// before it reaches the disk. LogDir leaves "." and ".." as they are and
// maps "" to the feeds directory itself, so a create or remove under such a
// name would otherwise reach the logs of every feed.
func TestInvalidNamesRefused(t *testing.T) {
	cfg := Config{WALDir: t.TempDir()}
	r := NewRegistry(cfg)
	defer r.CloseAll()
	f, err := r.Create("fleet", core.Params{M: 2, K: 2, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", ".", "..", "a/b", "a b"} {
		var inv *InvalidError
		if _, err := r.Create(name, core.Params{M: 2, K: 2, Eps: 1}); !errors.As(err, &inv) {
			t.Errorf("Create(%q) = %v, want an InvalidError", name, err)
		}
		if _, err := r.Remove(context.Background(), name); !errors.Is(err, ErrNoFeed) {
			t.Errorf("Remove(%q) = %v, want ErrNoFeed", name, err)
		}
		if _, err := f.AddMonitor(context.Background(), name, core.Params{M: 2, K: 3, Eps: 1}); !errors.As(err, &inv) {
			t.Errorf("AddMonitor(%q) = %v, want an InvalidError", name, err)
		}
	}
	if !wal.Exists(LogDir(cfg.WALDir, "fleet"), cfg.WAL) {
		t.Error("an invalid name reached another feed's log")
	}
}

// windowTicks reads a durable feed's whole log back: the ticks and labels
// a history query over it would see.
type windowTicks struct {
	ticks  []model.Tick
	labels map[string]bool
}

func (w *windowTicks) Block(t model.Tick, _ int)       { w.ticks = append(w.ticks, t) }
func (w *windowTicks) Position(l []byte, _, _ float64) { w.labels[string(l)] = true }

func readAll(t *testing.T, f *Feed) *windowTicks {
	t.Helper()
	w := &windowTicks{labels: map[string]bool{}}
	if err := f.ReadWindow(context.Background(), model.MinTick, model.MaxTick, w); err != nil {
		t.Fatal(err)
	}
	return w
}

var _ tsio.TickBlockVisitor = (*windowTicks)(nil)

// TestRefusedWritesLeaveNoTrace: a tick whose log append fails and a
// monitor whose journal entry fails are refused — the client hears an
// error and the feed rolls them back — and neither the live log (a history
// query's view) nor a recovery from the files brings them back. The client
// then retries the tick with different positions; the retry is what
// survives.
func TestRefusedWritesLeaveNoTrace(t *testing.T) {
	ctx := context.Background()
	fsys := waltest.New()
	cfg := Config{WALDir: t.TempDir(), WAL: wal.Options{FS: fsys, Fsync: wal.FsyncAlways}}
	r := NewRegistry(cfg)
	f, err := r.Create("fleet", core.Params{M: 2, K: 2, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	for tick := model.Tick(0); tick < 3; tick++ {
		if _, err := f.Ingest(ctx, []wire.TickBatch{pair(tick)}); err != nil {
			t.Fatal(err)
		}
	}

	fsys.Inject(waltest.Fault{Op: waltest.Sync, Match: "*.wal", Err: errDisk})
	refused := pair(3, wire.Position{ID: "ghost", X: 3, Y: 0.25})
	resp, err := f.Ingest(ctx, []wire.TickBatch{refused})
	var inv *InvalidError
	if !errors.Is(err, errDisk) || errors.As(err, &inv) || resp.Accepted != 0 {
		t.Fatalf("ingest over a failed fsync = %+v, %v; want the disk error, nothing accepted", resp, err)
	}
	fsys.Inject(waltest.Fault{Op: waltest.Sync, Match: "spec.jnl", Err: errDisk})
	if _, err := f.AddMonitor(ctx, "wide", core.Params{M: 2, K: 3, Eps: 2}); !errors.Is(err, errDisk) {
		t.Fatalf("monitor add over a failed journal fsync = %v, want the disk error", err)
	}

	st, err := f.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ticks != 3 || st.Objects != 2 || len(st.Monitors) != 1 {
		t.Fatalf("status after refusals = %+v, want 3 ticks, 2 objects, the default monitor", st)
	}
	if w := readAll(t, f); !reflect.DeepEqual(w.ticks, []model.Tick{0, 1, 2}) || w.labels["ghost"] {
		t.Fatalf("live log after the refused tick = ticks %v, labels %v", w.ticks, w.labels)
	}

	// The client retries tick 3 without the ghost; that is the tick 3 on
	// record.
	if _, err := f.Ingest(ctx, []wire.TickBatch{pair(3)}); err != nil {
		t.Fatalf("retried tick: %v", err)
	}
	want, err := f.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantEvents, err := f.EventsSince(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.CloseAll()

	r = NewRegistry(cfg)
	r.Recover()
	defer r.CloseAll()
	g, err := r.Get("fleet")
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gotEvents, err := g.EventsSince(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotEvents, wantEvents) {
		t.Errorf("recovered feed diverged from the live one\n got: %+v %+v\nwant: %+v %+v", got, gotEvents, want, wantEvents)
	}
	ws, err := g.WALStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Records != 4 || ws.Recovery == nil || ws.Recovery.ReplayedTicks != 4 || ws.Recovery.SkippedTicks != 0 || ws.Recovery.ReplayedOps != 0 {
		t.Errorf("recovered wal status = %+v (recovery %+v), want 4 records replayed, nothing skipped, no ops", ws, ws.Recovery)
	}
	if w := readAll(t, g); w.labels["ghost"] {
		t.Errorf("recovered log holds the refused tick's positions: %v", w.labels)
	}
}

// TestRefusedCreateLeavesNoLog: a feed whose log cannot be created is
// refused, and leaves no manifest behind — one would hold the name against
// the client's retry and resurrect a feed the client never got on restart.
func TestRefusedCreateLeavesNoLog(t *testing.T) {
	fsys := waltest.New()
	cfg := Config{WALDir: t.TempDir(), WAL: wal.Options{FS: fsys}}
	r := NewRegistry(cfg)
	fsys.Inject(waltest.Fault{Op: waltest.Write, Match: "00000001.wal", Err: errDisk})
	if _, err := r.Create("fleet", core.Params{M: 2, K: 2, Eps: 1}); !errors.Is(err, errDisk) {
		t.Fatalf("create over a failed segment write = %v, want the disk error", err)
	}
	if wal.Exists(LogDir(cfg.WALDir, "fleet"), cfg.WAL) {
		t.Error("the refused feed left its manifest on disk")
	}
	r.CloseAll()

	r = NewRegistry(cfg)
	r.Recover()
	defer r.CloseAll()
	if n := r.Count(); n != 0 {
		t.Errorf("recovery resurrected %d refused feeds", n)
	}
	if _, err := r.Create("fleet", core.Params{M: 2, K: 2, Eps: 1}); err != nil {
		t.Errorf("retrying the refused create: %v", err)
	}
}
