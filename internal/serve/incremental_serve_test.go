package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/wire"
)

// staticBatch is a frozen two-object snapshot: the best case for the
// incremental fast path (after the first tick every pass is a no-op).
func staticBatch(t model.Tick) TickBatch {
	return TickBatch{T: t, Positions: []wire.Position{
		{ID: "a", X: 0, Y: 0}, {ID: "b", X: 0.5, Y: 0}}}
}

// A feed on the default backend takes the incremental path by default, and
// the pass split plus reuse ratio surface in the feed status and /metrics.
func TestFeedIncrementalCountersAndReuseRatio(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "inc", wire.ParamsJSON{M: 2, K: 3, Eps: 1})
	const ticks = 10
	for tick := model.Tick(0); tick < ticks; tick++ {
		pushTick(t, ts.URL, "inc", staticBatch(tick))
	}

	var fs FeedStatus
	doJSON(t, "GET", ts.URL+"/v1/feeds/inc", nil, http.StatusOK, &fs)
	if fs.ClusterPasses != ticks {
		t.Fatalf("cluster passes = %d, want %d", fs.ClusterPasses, ticks)
	}
	if fs.ClusterPassesFull != 1 || fs.ClusterPassesIncremental != ticks-1 {
		t.Fatalf("pass split = %d full / %d incremental, want 1 / %d",
			fs.ClusterPassesFull, fs.ClusterPassesIncremental, ticks-1)
	}
	// Only the first (full) pass touched the two objects; every later
	// frozen tick reused the carried state wholesale.
	if fs.ObjectsReclustered != 2 {
		t.Fatalf("objects reclustered = %d, want 2 (first full pass only)", fs.ObjectsReclustered)
	}
	if fs.ReuseRatio < 0.5 {
		t.Fatalf("reuse ratio = %g, want ≥ 0.5 on a frozen feed", fs.ReuseRatio)
	}

	samples := scrape(t, srv)
	full := samples["convoyd_feed_cluster_passes_full_total"]
	inc := samples["convoyd_feed_cluster_passes_incremental_total"]
	reclustered := samples["convoyd_feed_objects_reclustered_total"]
	if full != float64(fs.ClusterPassesFull) ||
		inc != float64(fs.ClusterPassesIncremental) ||
		reclustered != float64(fs.ObjectsReclustered) {
		t.Fatalf("server split = %g/%g/%g, want feed's %d/%d/%d",
			full, inc, reclustered,
			fs.ClusterPassesFull, fs.ClusterPassesIncremental, fs.ObjectsReclustered)
	}
	seen := samples["convoyd_feed_objects_seen_total"]
	if seen != 2*ticks {
		t.Fatalf("objects seen = %g, want %d", seen, 2*ticks)
	}
	if ratio := 1 - reclustered/seen; ratio < 0.5 {
		t.Fatalf("server reuse ratio = %g, want ≥ 0.5", ratio)
	}
}

// Removing the last monitor on a clustering key releases its source —
// including the incremental engine's carried state. A re-added monitor
// with the same key starts from a full pass, never from a stranger's
// (possibly stale) snapshot diff.
func TestMonitorRemovalDropsIncrementalState(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "life", wire.ParamsJSON{M: 2, K: 3, Eps: 1})
	side := MonitorSpec{ID: "side", Params: wire.ParamsJSON{M: 2, K: 3, Eps: 2}}
	addMonitor(t, ts.URL, "life", side)

	// Two sources (e=1 and e=2). Tick 0 is full for both; tick 1 is
	// incremental for both.
	pushTick(t, ts.URL, "life", staticBatch(0))
	pushTick(t, ts.URL, "life", staticBatch(1))
	var fs FeedStatus
	doJSON(t, "GET", ts.URL+"/v1/feeds/life", nil, http.StatusOK, &fs)
	if fs.ClusterPassesFull != 2 || fs.ClusterPassesIncremental != 2 {
		t.Fatalf("pass split = %d full / %d incremental, want 2 / 2",
			fs.ClusterPassesFull, fs.ClusterPassesIncremental)
	}

	// Drop and re-add the e=2 monitor. Its source was released with it, so
	// tick 2 must be a full pass for the fresh source while the surviving
	// e=1 source stays incremental.
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/life/monitors/side", nil, http.StatusOK, nil)
	addMonitor(t, ts.URL, "life", side)
	pushTick(t, ts.URL, "life", staticBatch(2))
	doJSON(t, "GET", ts.URL+"/v1/feeds/life", nil, http.StatusOK, &fs)
	if fs.ClusterPassesFull != 3 || fs.ClusterPassesIncremental != 3 {
		t.Fatalf("after re-add: pass split = %d full / %d incremental, want 3 / 3 (state dropped with the monitor)",
			fs.ClusterPassesFull, fs.ClusterPassesIncremental)
	}
}

// The per-feed and per-query "incremental" knobs are gone (incremental ≡
// from-scratch is property-pinned). Clients that still send the old spellings — a feed-create
// body field, a /v1/query JSON body field, a URL parameter — must keep
// getting a 2xx and the unchanged answer: no decoder rejects the name.
func TestRemovedIncrementalSpellingsIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "two.csv"), fixtureCSV(t), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{DataDir: dir})

	// Feed create: the field is ignored, so the feed clusters exactly like
	// one created without it (incrementally, unless the env hatch is set).
	status := func(spec map[string]any) FeedStatus {
		t.Helper()
		spec["name"] = "f"
		spec["params"] = map[string]any{"m": 2, "k": 3, "e": 1}
		doJSON(t, "POST", ts.URL+"/v1/feeds", spec, http.StatusCreated, nil)
		for tick := model.Tick(0); tick < 5; tick++ {
			pushTick(t, ts.URL, "f", staticBatch(tick))
		}
		var fs FeedStatus
		doJSON(t, "GET", ts.URL+"/v1/feeds/f", nil, http.StatusOK, &fs)
		doJSON(t, "DELETE", ts.URL+"/v1/feeds/f", nil, http.StatusOK, nil)
		return fs
	}
	if want, got := status(map[string]any{}), status(map[string]any{"incremental": false}); !reflect.DeepEqual(got, want) {
		t.Fatalf("feed created with \"incremental\": false diverged\n got: %+v\nwant: %+v", got, want)
	}

	// Batch query: JSON body field and URL parameter, any value.
	var want QueryResponse
	doJSON(t, "POST", ts.URL+"/v1/query",
		map[string]any{"path": "two.csv", "m": 2, "k": 5, "e": 1, "algo": "cmc"}, http.StatusOK, &want)
	if len(want.Convoys) != 2 {
		t.Fatalf("reference query = %+v", want)
	}
	var body QueryResponse
	doJSON(t, "POST", ts.URL+"/v1/query",
		map[string]any{"path": "two.csv", "m": 2, "k": 5, "e": 1, "algo": "cmc", "incremental": false}, http.StatusOK, &body)
	if !reflect.DeepEqual(body.Convoys, want.Convoys) {
		t.Fatalf("JSON body with incremental=false: convoys = %+v, want %+v", body.Convoys, want.Convoys)
	}
	for _, v := range []string{"false", "true", "maybe"} {
		got := postQuery(t, ts.URL+"/v1/query?m=2&k=5&e=1&algo=cmc&incremental="+v, fixtureCSV(t), http.StatusOK)
		if !reflect.DeepEqual(got.Convoys, want.Convoys) {
			t.Fatalf("?incremental=%s: convoys = %+v, want %+v", v, got.Convoys, want.Convoys)
		}
	}
}
