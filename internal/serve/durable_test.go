package serve

import (
	"context"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/tsio"
	"repro/internal/wal"
	"repro/internal/wire"
)

// copyTree snapshots a directory tree — the crash image of a running
// server's WAL root. Under FsyncAlways every acknowledged batch is fully
// written before the ack, so a copy taken between requests is exactly what
// a SIGKILL at that moment would leave behind.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy %s: %v", src, err)
	}
}

// feedSnapshot is the externally observable feed state the recovery
// equivalence is asserted over: the full status (counters, monitor table)
// plus the complete event history.
type feedSnapshot struct {
	status FeedStatus
	events []Event
}

func snapshotFeed(t *testing.T, base, name string) feedSnapshot {
	t.Helper()
	var snap feedSnapshot
	doJSON(t, "GET", base+"/v1/feeds/"+name, nil, http.StatusOK, &snap.status)
	var poll EventsResponse
	doJSON(t, "GET", base+"/v1/feeds/"+name+"/convoys", nil, http.StatusOK, &poll)
	snap.events = poll.Events
	return snap
}

// durableConfig is the crash-recovery test config: always-fsync and tiny
// segments, so images are crash-exact and rotation is exercised.
func durableConfig(dir string) Config {
	return Config{WALDir: dir, WALFsync: wal.FsyncAlways, WALSegmentBytes: 512}
}

// TestDurableFeedCrashRecovery is the recovery property test: run a feed
// through a scripted life — ticks interleaved with monitor adds/removes —
// snapshotting the observable state and a crash image after every step,
// then for several crash points restart a server on the image and demand
// state identical to the one that never crashed. One crash point also
// finishes the remaining script and must land on the same final state.
func TestDurableFeedCrashRecovery(t *testing.T) {
	walRoot := filepath.Join(t.TempDir(), "data")
	_, ts := newTestServer(t, durableConfig(walRoot))
	createFeed(t, ts.URL, "fleet", wire.ParamsJSON{M: 2, K: 5, Eps: 1})

	// The scripted life, replayable against any server.
	steps := []func(t *testing.T, base string){}
	tickStep := func(tick model.Tick) func(*testing.T, string) {
		return func(t *testing.T, base string) { pushTick(t, base, "fleet", vanBatch(tick)) }
	}
	for tick := model.Tick(0); tick < 5; tick++ {
		steps = append(steps, tickStep(tick))
	}
	steps = append(steps, func(t *testing.T, base string) {
		var st wire.MonitorStatus
		doJSON(t, "POST", base+"/v1/feeds/fleet/monitors",
			MonitorSpec{ID: "wide", Params: wire.ParamsJSON{M: 2, K: 3, Eps: 2}}, http.StatusCreated, &st)
	})
	for tick := model.Tick(5); tick < 12; tick++ {
		steps = append(steps, tickStep(tick))
	}
	steps = append(steps, func(t *testing.T, base string) {
		doJSON(t, "DELETE", base+"/v1/feeds/fleet/monitors/wide", nil, http.StatusOK, nil)
	})
	for tick := model.Tick(12); tick < 20; tick++ {
		steps = append(steps, tickStep(tick))
	}

	// Reference run: execute every step, keeping the never-crashed state
	// and the crash image after each one.
	images := t.TempDir()
	refs := make([]feedSnapshot, len(steps))
	for i, step := range steps {
		step(t, ts.URL)
		refs[i] = snapshotFeed(t, ts.URL, "fleet")
		copyTree(t, walRoot, filepath.Join(images, "crash", string(rune('a'+i))))
	}

	// Crash points: early, right after the monitor add (step 5), right
	// after its removal (step 13), and at the very end.
	for _, crash := range []int{2, 5, 13, len(steps) - 1} {
		img := filepath.Join(t.TempDir(), "restart")
		copyTree(t, filepath.Join(images, "crash", string(rune('a'+crash))), img)
		_, tsB := newTestServer(t, durableConfig(img))
		got := snapshotFeed(t, tsB.URL, "fleet")
		if !reflect.DeepEqual(got.status, refs[crash].status) {
			t.Errorf("crash after step %d: recovered status diverged\n got: %+v\nwant: %+v",
				crash, got.status, refs[crash].status)
		}
		if !reflect.DeepEqual(got.events, refs[crash].events) {
			t.Errorf("crash after step %d: recovered events diverged\n got: %+v\nwant: %+v",
				crash, got.events, refs[crash].events)
		}
		var ws WALStatusJSON
		doJSON(t, "GET", tsB.URL+"/v1/feeds/fleet/wal", nil, http.StatusOK, &ws)
		if ws.Recovery == nil {
			t.Fatalf("crash after step %d: recovered feed reports no recovery block", crash)
		}
		if want := refs[crash].status.Ticks; ws.Recovery.ReplayedTicks != want {
			t.Errorf("crash after step %d: replayed %d ticks, want %d", crash, ws.Recovery.ReplayedTicks, want)
		}

		if crash == 5 {
			// Finish the script on the restarted server: a crash mid-life
			// must not change where the feed ends up.
			for _, step := range steps[crash+1:] {
				step(t, tsB.URL)
			}
			final := snapshotFeed(t, tsB.URL, "fleet")
			if !reflect.DeepEqual(final, refs[len(refs)-1]) {
				t.Errorf("crash after step %d + replayed script: final state diverged\n got: %+v\nwant: %+v",
					crash, final, refs[len(refs)-1])
			}
		}
	}
}

// TestDurableFeedTornTailRecovery crashes a feed mid-append: the crash
// image's newest segment gains a partial record, and recovery must drop
// exactly that tail and come back at the last complete batch.
func TestDurableFeedTornTailRecovery(t *testing.T) {
	walRoot := filepath.Join(t.TempDir(), "data")
	_, ts := newTestServer(t, durableConfig(walRoot))
	createFeed(t, ts.URL, "fleet", wire.ParamsJSON{M: 2, K: 5, Eps: 1})
	var want feedSnapshot
	for tick := model.Tick(0); tick < 8; tick++ {
		pushTick(t, ts.URL, "fleet", vanBatch(tick))
		if tick == 6 {
			want = snapshotFeed(t, ts.URL, "fleet")
		}
	}

	img := filepath.Join(t.TempDir(), "restart")
	copyTree(t, walRoot, img)
	feedDir := feed.LogDir(img, "fleet")
	segs, err := filepath.Glob(filepath.Join(feedDir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", feedDir, err)
	}
	// Cut a few bytes off the newest segment: its final record — the last
	// batch, tick 7 — ends mid-payload, exactly like a crash mid-append.
	newest := segs[len(segs)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	_, tsB := newTestServer(t, durableConfig(img))
	got := snapshotFeed(t, tsB.URL, "fleet")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("torn-tail recovery: state diverged from the tick-6 snapshot\n got: %+v\nwant: %+v", got, want)
	}
	var ws WALStatusJSON
	doJSON(t, "GET", tsB.URL+"/v1/feeds/fleet/wal", nil, http.StatusOK, &ws)
	if ws.Recovery == nil || ws.Recovery.TruncatedBytes == 0 {
		t.Fatalf("wal status after torn-tail recovery = %+v; want a recovery block with truncated bytes", ws)
	}
	if ws.LastTick == nil || *ws.LastTick != 6 {
		t.Errorf("wal status last tick = %v, want 6", ws.LastTick)
	}
	// The feed is live again: re-ingesting the lost batch appends past the
	// repaired tail.
	pushTick(t, tsB.URL, "fleet", vanBatch(7))
}

// TestRecoverySkipsLegacyIncrementalOp pins WAL back-compat for the removed
// per-feed incremental knob: spec journals written by PR 9–11 builds can
// hold {"op":"incremental",…} entries, and a journal with such entries
// interleaved must recover to exactly the state of the same journal
// without them — not fail recovery on an unknown op.
func TestRecoverySkipsLegacyIncrementalOp(t *testing.T) {
	walRoot := filepath.Join(t.TempDir(), "data")
	_, ts := newTestServer(t, durableConfig(walRoot))
	createFeed(t, ts.URL, "fleet", wire.ParamsJSON{M: 2, K: 5, Eps: 1})
	for tick := model.Tick(0); tick < 16; tick++ {
		if tick == 5 {
			addMonitor(t, ts.URL, "fleet", MonitorSpec{ID: "wide", Params: wire.ParamsJSON{M: 2, K: 3, Eps: 2}})
		}
		pushTick(t, ts.URL, "fleet", vanBatch(tick))
	}
	want := snapshotFeed(t, ts.URL, "fleet")
	if len(want.events) == 0 {
		t.Fatal("fixture closed no convoys; the event comparison would be vacuous")
	}

	plain := filepath.Join(t.TempDir(), "plain")
	legacy := filepath.Join(t.TempDir(), "legacy")
	copyTree(t, walRoot, plain)
	copyTree(t, walRoot, legacy)

	// Rewrite the legacy image's journal with a flip before the monitor-add
	// (after tick 2) and one after it (after tick 9), as an old build would
	// have journaled them.
	dir := feed.LogDir(legacy, "fleet")
	jnl, entries, _, err := wal.OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("journal holds %d entries, want the one monitor-add", len(entries))
	}
	if err := os.Remove(filepath.Join(dir, "spec.jnl")); err != nil {
		t.Fatal(err)
	}
	jnl, _, _, err = wal.OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range [][]byte{
		[]byte(`{"op":"incremental","on":false,"after_tick":2,"started":true}`),
		entries[0],
		[]byte(`{"op":"incremental","on":true,"after_tick":9,"started":true}`),
	} {
		if err := jnl.Append(entry); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	for name, img := range map[string]string{"plain": plain, "legacy": legacy} {
		_, tsB := newTestServer(t, durableConfig(img))
		if got := snapshotFeed(t, tsB.URL, "fleet"); !reflect.DeepEqual(got, want) {
			t.Errorf("%s journal: recovered state diverged\n got: %+v\nwant: %+v", name, got, want)
		}
	}
}

// TestRecoverySkipsDuplicateBatch models at-least-once ingestion across a
// crash: the log holds the last batch twice, and replay applies it once.
func TestRecoverySkipsDuplicateBatch(t *testing.T) {
	walRoot := filepath.Join(t.TempDir(), "data")
	srv := New(durableConfig(walRoot))
	ts := httptest.NewServer(srv)
	createFeed(t, ts.URL, "fleet", wire.ParamsJSON{M: 2, K: 5, Eps: 1})
	for tick := model.Tick(0); tick < 6; tick++ {
		pushTick(t, ts.URL, "fleet", vanBatch(tick))
	}
	want := snapshotFeed(t, ts.URL, "fleet")
	ts.Close()
	srv.Close()

	log, _, err := wal.Open(feed.LogDir(walRoot, "fleet"), wal.Options{})
	if err != nil {
		t.Fatalf("reopen feed log: %v", err)
	}
	if err := log.Append(logBlock(vanBatch(5))); err != nil {
		t.Fatalf("append duplicate: %v", err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	_, tsB := newTestServer(t, durableConfig(walRoot))
	got := snapshotFeed(t, tsB.URL, "fleet")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovery over a duplicated batch diverged\n got: %+v\nwant: %+v", got, want)
	}
	var ws WALStatusJSON
	doJSON(t, "GET", tsB.URL+"/v1/feeds/fleet/wal", nil, http.StatusOK, &ws)
	if ws.Recovery == nil || ws.Recovery.SkippedTicks != 1 {
		t.Fatalf("wal status = %+v; want recovery with exactly 1 skipped tick", ws)
	}
}

// logBlock is a batch of positions in the form a feed logs it.
func logBlock(b TickBatch) tsio.TickBlock {
	blk := tsio.TickBlock{T: b.T}
	for _, p := range b.Positions {
		blk.Positions = append(blk.Positions, tsio.TickPosition{Label: p.ID, X: p.X, Y: p.Y})
	}
	return blk
}

// sortConvoys orders a convoy list for set comparison.
func sortConvoys(cs []ConvoyJSON) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return len(a.Objects) < len(b.Objects)
	})
}

// TestHistoryQueryMatchesBatch is the acceptance check for historical
// replay: a from/to query against the WAL answers exactly what the oracle
// answers over a database built from the same window of the stream.
func TestHistoryQueryMatchesBatch(t *testing.T) {
	walRoot := filepath.Join(t.TempDir(), "data")
	_, ts := newTestServer(t, durableConfig(walRoot))
	createFeed(t, ts.URL, "fleet", wire.ParamsJSON{M: 2, K: 5, Eps: 1})
	for tick := model.Tick(0); tick < 20; tick++ {
		pushTick(t, ts.URL, "fleet", vanBatch(tick))
	}

	for _, tc := range []struct {
		name     string
		from, to *model.Tick
		loTick   model.Tick // the window the batches actually span
		hiTick   model.Tick
		legacy   int // the removed "partitions" field an old client sends: decoding drops it
	}{
		{"bounded", ptrTick(3), ptrTick(16), 3, 16, 0},
		{"unbounded", nil, nil, 0, 19, 0},
		{"suffix", ptrTick(10), nil, 10, 19, 0},
		{"partitions=3", nil, nil, 0, 19, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var resp HistoryQueryResponse
			doJSON(t, "POST", ts.URL+"/v1/feeds/fleet/query", legacyQuery{HistoryQueryRequest{
				Params: wire.ParamsJSON{M: 2, K: 5, Eps: 1}, From: tc.from, To: tc.to,
			}, tc.legacy}, http.StatusOK, &resp)
			// The historical default algorithm is CMC.
			if resp.Algo != AlgoCMC {
				t.Fatalf("algo=%q, want cmc", resp.Algo)
			}
			if want := int(tc.hiTick-tc.loTick) + 1; resp.Ticks != want {
				t.Fatalf("ticks = %d, want %d", resp.Ticks, want)
			}

			// The oracle: the same window, assembled into a trajectory
			// database by hand, answered by internal/oracle.
			db := model.NewDB()
			for _, id := range []string{"a", "b", "c"} {
				var samples []model.Sample
				for tick := tc.loTick; tick <= tc.hiTick; tick++ {
					for _, p := range vanBatch(tick).Positions {
						if p.ID == id {
							samples = append(samples, model.Sample{T: tick, P: geom.Pt(p.X, p.Y)})
						}
					}
				}
				tr, err := model.NewTrajectory(id, samples)
				if err != nil {
					t.Fatal(err)
				}
				db.Add(tr)
			}
			want := []ConvoyJSON{}
			for _, c := range oracleAnswer(db, core.Params{M: 2, K: 5, Eps: 1}) {
				want = append(want, wire.ConvoyToJSON(c, wire.DBLabels(db)))
			}
			sortConvoys(want)
			got := append([]ConvoyJSON{}, resp.Convoys...)
			sortConvoys(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("historical query diverged from the oracle\n got: %+v\nwant: %+v", got, want)
			}
		})
	}

	// An inverted window is the client's mistake.
	doJSON(t, "POST", ts.URL+"/v1/feeds/fleet/query", HistoryQueryRequest{
		Params: wire.ParamsJSON{M: 2, K: 5, Eps: 1}, From: ptrTick(9), To: ptrTick(3),
	}, http.StatusBadRequest, nil)

	// timeout_ms bounds a historical query like any other (it used to be
	// dropped: only the server's cap applied). One nanosecond has expired
	// before the window is read.
	doJSON(t, "POST", ts.URL+"/v1/feeds/fleet/query", HistoryQueryRequest{
		Params: wire.ParamsJSON{M: 2, K: 5, Eps: 1}, TimeoutMS: 1e-6,
	}, http.StatusGatewayTimeout, nil)
}

func ptrTick(t model.Tick) *model.Tick { return &t }

// TestHistoryQueryProxgraph: a history query naming the proxgraph backend
// is refused with the library pointer — the WAL holds positions only — and
// the legacy "dbscan" spelling answers exactly what no clusterer does.
func TestHistoryQueryProxgraph(t *testing.T) {
	walRoot := filepath.Join(t.TempDir(), "data")
	_, ts := newTestServer(t, durableConfig(walRoot))
	createFeed(t, ts.URL, "fleet", wire.ParamsJSON{M: 2, K: 3, Eps: 1})
	for tick := model.Tick(0); tick < 6; tick++ {
		pushTick(t, ts.URL, "fleet", vanBatch(tick))
	}
	req := HistoryQueryRequest{Params: wire.ParamsJSON{M: 2, K: 3, Eps: 1}, From: ptrTick(1), To: ptrTick(4)}
	graph := req
	graph.Clusterer = "proxgraph"
	expectRefusal(t, "POST", ts.URL+"/v1/feeds/fleet/query", graph)

	var plain, legacy HistoryQueryResponse
	doJSON(t, "POST", ts.URL+"/v1/feeds/fleet/query", req, http.StatusOK, &plain)
	req.Clusterer = "dbscan"
	doJSON(t, "POST", ts.URL+"/v1/feeds/fleet/query", req, http.StatusOK, &legacy)
	plain.ElapsedMS, legacy.ElapsedMS = 0, 0
	if len(plain.Convoys) == 0 || !reflect.DeepEqual(plain, legacy) {
		t.Fatalf("clusterer=dbscan answered %+v, no clusterer %+v; want one non-empty answer", legacy, plain)
	}
}

// TestWALStatusEndpoint covers GET /v1/feeds/{name}/wal on a fresh feed
// and the 404 of both durable endpoints on an in-memory server.
func TestWALStatusEndpoint(t *testing.T) {
	walRoot := filepath.Join(t.TempDir(), "data")
	srv, ts := newTestServer(t, durableConfig(walRoot))
	createFeed(t, ts.URL, "fleet", wire.ParamsJSON{M: 2, K: 5, Eps: 1})

	var ws WALStatusJSON
	doJSON(t, "GET", ts.URL+"/v1/feeds/fleet/wal", nil, http.StatusOK, &ws)
	if ws.Feed != "fleet" || ws.Fsync != "always" || ws.Records != 0 || ws.FirstTick != nil || ws.Recovery != nil {
		t.Fatalf("fresh wal status = %+v", ws)
	}
	for tick := model.Tick(0); tick < 3; tick++ {
		pushTick(t, ts.URL, "fleet", vanBatch(tick))
	}
	doJSON(t, "GET", ts.URL+"/v1/feeds/fleet/wal", nil, http.StatusOK, &ws)
	if ws.Records != 3 || ws.AppendedRecords != 3 || ws.Segments == 0 || ws.Bytes == 0 {
		t.Errorf("wal status after 3 ticks = %+v", ws)
	}
	if ws.FirstTick == nil || *ws.FirstTick != 0 || ws.LastTick == nil || *ws.LastTick != 2 {
		t.Errorf("wal tick range = [%v,%v], want [0,2]", ws.FirstTick, ws.LastTick)
	}
	if ws.LastSync == nil {
		t.Error("no last_sync under fsync=always")
	}

	// The server's aggregate meters follow the same appends.
	samples := scrape(t, srv)
	if samples["convoyd_wal_appended_records_total"] != 3 ||
		samples["convoyd_wal_appended_bytes_total"] == 0 || samples["convoyd_wal_segments"] == 0 {
		t.Errorf("server wal meters: records %g, bytes %g, segments %g",
			samples["convoyd_wal_appended_records_total"],
			samples["convoyd_wal_appended_bytes_total"], samples["convoyd_wal_segments"])
	}

	// Without a data dir the durable endpoints do not exist for the feed.
	_, tsMem := newTestServer(t, Config{})
	createFeed(t, tsMem.URL, "fleet", wire.ParamsJSON{M: 2, K: 5, Eps: 1})
	doJSON(t, "GET", tsMem.URL+"/v1/feeds/fleet/wal", nil, http.StatusNotFound, nil)
	doJSON(t, "POST", tsMem.URL+"/v1/feeds/fleet/query",
		HistoryQueryRequest{Params: wire.ParamsJSON{M: 2, K: 5, Eps: 1}}, http.StatusNotFound, nil)
}

// TestDurableFeedLifecycle covers the registry's custody of the WAL
// directory: eviction closes the handles but keeps the files, DELETE
// removes them (including for an already-evicted feed), and a leftover
// directory blocks re-creation with a 409.
func TestDurableFeedLifecycle(t *testing.T) {
	walRoot := filepath.Join(t.TempDir(), "data")
	srv, ts := newTestServer(t, durableConfig(walRoot))
	createFeed(t, ts.URL, "fleet", wire.ParamsJSON{M: 2, K: 5, Eps: 1})
	pushTick(t, ts.URL, "fleet", vanBatch(0))
	dir := feed.LogDir(walRoot, "fleet")

	f, err := srv.reg.Get("fleet")
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.reg.EvictIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("evicted %d feeds, want 1", n)
	}
	// The evicted feed is closed — a write through it must fail rather than
	// touch the files a future recovery owns.
	if _, err := f.Ingest(context.Background(), []TickBatch{vanBatch(1)}); !errors.Is(err, feed.ErrFeedClosed) {
		t.Fatalf("ingest on an evicted feed = %v, want feed.ErrFeedClosed", err)
	}
	if !wal.Exists(dir, wal.Options{}) {
		t.Fatal("eviction removed the WAL directory; it must only close handles")
	}

	// The name is taken by the on-disk history until a DELETE or restart.
	doJSON(t, "POST", ts.URL+"/v1/feeds",
		FeedSpec{Name: "fleet", Params: wire.ParamsJSON{M: 2, K: 5, Eps: 1}}, http.StatusConflict, nil)

	// DELETE of the evicted feed forgets the history with nothing to drain.
	var closed FeedCloseResponse
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/fleet", nil, http.StatusOK, &closed)
	if len(closed.Drained) != 0 {
		t.Errorf("evicted DELETE drained %+v, want nothing", closed.Drained)
	}
	if wal.Exists(dir, wal.Options{}) {
		t.Fatal("DELETE left the WAL directory behind")
	}

	// The name is free again; a live feed's DELETE also removes its log.
	createFeed(t, ts.URL, "fleet", wire.ParamsJSON{M: 2, K: 5, Eps: 1})
	pushTick(t, ts.URL, "fleet", vanBatch(0))
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/fleet", nil, http.StatusOK, &closed)
	if wal.Exists(dir, wal.Options{}) {
		t.Fatal("DELETE of a live feed left the WAL directory behind")
	}
}

// TestEvictedDurableFeedResurrects closes the loop on eviction: the files
// an evicted feed leaves behind bring it back on the next server start.
func TestEvictedDurableFeedResurrects(t *testing.T) {
	walRoot := filepath.Join(t.TempDir(), "data")
	srv, ts := newTestServer(t, durableConfig(walRoot))
	createFeed(t, ts.URL, "fleet", wire.ParamsJSON{M: 2, K: 5, Eps: 1})
	for tick := model.Tick(0); tick < 4; tick++ {
		pushTick(t, ts.URL, "fleet", vanBatch(tick))
	}
	want := snapshotFeed(t, ts.URL, "fleet")
	if n := srv.reg.EvictIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("evicted %d feeds, want 1", n)
	}
	doJSON(t, "GET", ts.URL+"/v1/feeds/fleet", nil, http.StatusNotFound, nil)

	_, tsB := newTestServer(t, durableConfig(walRoot))
	got := snapshotFeed(t, tsB.URL, "fleet")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resurrected feed diverged\n got: %+v\nwant: %+v", got, want)
	}
}
