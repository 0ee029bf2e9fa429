package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
)

// addMonitor registers a monitor on a feed and asserts success.
func addMonitor(t *testing.T, base, feed string, spec MonitorSpec) MonitorStatus {
	t.Helper()
	var st MonitorStatus
	doJSON(t, "POST", base+"/v1/feeds/"+feed+"/monitors", spec, http.StatusCreated, &st)
	if st.ID != spec.ID || st.Feed != feed {
		t.Fatalf("created monitor %+v, want id %q on %q", st, spec.ID, feed)
	}
	return st
}

func TestMonitorTableCRUD(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "fleet", ParamsJSON{M: 2, K: 5, Eps: 1})

	// The creation params became the default monitor.
	var monitors []MonitorStatus
	doJSON(t, "GET", ts.URL+"/v1/feeds/fleet/monitors", nil, http.StatusOK, &monitors)
	if len(monitors) != 1 || monitors[0].ID != DefaultMonitorID {
		t.Fatalf("initial monitors = %+v", monitors)
	}

	addMonitor(t, ts.URL, "fleet", MonitorSpec{ID: "patient", Params: ParamsJSON{M: 2, K: 10, Eps: 1}})
	addMonitor(t, ts.URL, "fleet", MonitorSpec{ID: "wide", Params: ParamsJSON{M: 2, K: 5, Eps: 3}})

	// Duplicates conflict; bad IDs and params are client mistakes.
	doJSON(t, "POST", ts.URL+"/v1/feeds/fleet/monitors",
		MonitorSpec{ID: "patient", Params: ParamsJSON{M: 2, K: 2, Eps: 1}}, http.StatusConflict, nil)
	doJSON(t, "POST", ts.URL+"/v1/feeds/fleet/monitors",
		MonitorSpec{ID: "a/b", Params: ParamsJSON{M: 2, K: 2, Eps: 1}}, http.StatusBadRequest, nil)
	// "." and ".." would be path-cleaned out of the monitor's own routes,
	// leaving a resource that can be created but never queried or deleted.
	doJSON(t, "POST", ts.URL+"/v1/feeds/fleet/monitors",
		MonitorSpec{ID: ".", Params: ParamsJSON{M: 2, K: 2, Eps: 1}}, http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/v1/feeds/fleet/monitors",
		MonitorSpec{ID: "..", Params: ParamsJSON{M: 2, K: 2, Eps: 1}}, http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/v1/feeds",
		FeedSpec{Name: "..", Params: ParamsJSON{M: 2, K: 2, Eps: 1}}, http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/v1/feeds/fleet/monitors",
		MonitorSpec{ID: "bad", Params: ParamsJSON{M: 0, K: 0, Eps: -1}}, http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/v1/feeds/nope/monitors",
		MonitorSpec{ID: "x", Params: ParamsJSON{M: 2, K: 2, Eps: 1}}, http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/v1/feeds/fleet/monitors/nope", nil, http.StatusNotFound, nil)
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/fleet/monitors/nope", nil, http.StatusNotFound, nil)

	// The feed status reflects the table: default and patient share the
	// clustering key (e=1, m=2); wide has its own.
	var st FeedStatus
	doJSON(t, "GET", ts.URL+"/v1/feeds/fleet", nil, http.StatusOK, &st)
	if len(st.Monitors) != 3 || st.ClusterGroups != 2 {
		t.Fatalf("status = %+v", st)
	}

	var mst MonitorStatus
	doJSON(t, "GET", ts.URL+"/v1/feeds/fleet/monitors/patient", nil, http.StatusOK, &mst)
	if mst.Params.K != 10 {
		t.Fatalf("patient status = %+v", mst)
	}

	// Removing a key's last monitor drops its cluster group.
	var del MonitorCloseResponse
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/fleet/monitors/wide", nil, http.StatusOK, &del)
	if del.ID != "wide" {
		t.Fatalf("delete = %+v", del)
	}
	doJSON(t, "GET", ts.URL+"/v1/feeds/fleet", nil, http.StatusOK, &st)
	if len(st.Monitors) != 2 || st.ClusterGroups != 1 {
		t.Fatalf("after delete: %+v", st)
	}
}

func TestMonitorLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxMonitorsPerFeed: 2})
	createFeed(t, ts.URL, "small", ParamsJSON{M: 2, K: 2, Eps: 1}) // default = 1 of 2
	addMonitor(t, ts.URL, "small", MonitorSpec{ID: "second", Params: ParamsJSON{M: 2, K: 3, Eps: 1}})
	doJSON(t, "POST", ts.URL+"/v1/feeds/small/monitors",
		MonitorSpec{ID: "third", Params: ParamsJSON{M: 2, K: 4, Eps: 1}},
		http.StatusTooManyRequests, nil)
	// Removing one frees a slot.
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/small/monitors/second", nil, http.StatusOK, nil)
	addMonitor(t, ts.URL, "small", MonitorSpec{ID: "third", Params: ParamsJSON{M: 2, K: 4, Eps: 1}})
}

// The acceptance property: each of N monitors registered on one feed emits
// (after canonicalization) exactly the oracle's answer for its (m, k, e)
// over the same tick sequence — and the feed's
// clustering-pass counter proves monitors sharing (e, m) triggered exactly
// one DBSCAN pass per tick.
func TestPropFeedMonitorsEqualStreamers(t *testing.T) {
	specs := []MonitorSpec{
		// "default" is created with the feed below (m=3, k=4, e=1.5).
		{ID: "quick", Params: ParamsJSON{M: 3, K: 2, Eps: 1.5}},   // shares (e, m) with default
		{ID: "patient", Params: ParamsJSON{M: 3, K: 8, Eps: 1.5}}, // shares (e, m) with default
		{ID: "wide", Params: ParamsJSON{M: 3, K: 4, Eps: 2.5}},    // own key (different e)
		{ID: "pairs", Params: ParamsJSON{M: 2, K: 4, Eps: 1.5}},   // own key (different m)
	}
	const distinctKeys = 3
	for seed := int64(1); seed <= 3; seed++ {
		db := randomDB(t, seed)

		_, ts := newTestServer(t, Config{})
		createFeed(t, ts.URL, "multi", ParamsJSON{M: 3, K: 4, Eps: 1.5})
		for _, spec := range specs {
			addMonitor(t, ts.URL, "multi", spec)
		}

		emitted := map[string][]core.Convoy{}
		collect := func(monitor string, cs []ConvoyJSON) {
			emitted[monitor] = append(emitted[monitor], wireConvoys(t, cs)...)
		}

		ticks := int64(0)
		err := core.ReplayTicks(db, func(tick model.Tick, ids []model.ObjectID, pts []geom.Point) error {
			ticks++
			batch := TickBatch{T: tick, Positions: make([]Position, len(ids))}
			for i, id := range ids {
				batch.Positions[i] = Position{ID: strconv.Itoa(id), X: pts[i].X, Y: pts[i].Y}
			}
			pushTick(t, ts.URL, "multi", batch)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}

		// One DBSCAN pass per distinct (e, m) per tick — not per monitor.
		var st FeedStatus
		doJSON(t, "GET", ts.URL+"/v1/feeds/multi", nil, http.StatusOK, &st)
		if st.ClusterGroups != distinctKeys {
			t.Fatalf("cluster groups = %d, want %d", st.ClusterGroups, distinctKeys)
		}
		if want := ticks * distinctKeys; st.ClusterPasses != want {
			t.Fatalf("cluster passes = %d over %d ticks, want %d (one per key per tick)",
				st.ClusterPasses, ticks, want)
		}

		// Collect each monitor's events from the shared log, then drain
		// each monitor individually for attribution of still-open convoys.
		var poll EventsResponse
		doJSON(t, "GET", ts.URL+"/v1/feeds/multi/convoys", nil, http.StatusOK, &poll)
		for _, ev := range poll.Events {
			collect(ev.Monitor, []ConvoyJSON{ev.Convoy})
		}
		all := append([]MonitorSpec{{ID: DefaultMonitorID, Params: ParamsJSON{M: 3, K: 4, Eps: 1.5}}}, specs...)
		for _, spec := range all {
			var del MonitorCloseResponse
			doJSON(t, "DELETE", ts.URL+"/v1/feeds/multi/monitors/"+spec.ID, nil, http.StatusOK, &del)
			collect(spec.ID, del.Drained)
		}

		for _, spec := range all {
			want := oracleAnswer(db, spec.Params.Params())
			got := core.Canonicalize(emitted[spec.ID])
			if !got.Equal(want) {
				t.Fatalf("seed %d monitor %q (m=%d k=%d e=%g): feed answer differs from the oracle\ngot:\n%v\nwant:\n%v",
					seed, spec.ID, spec.Params.M, spec.Params.K, spec.Params.Eps, got, want)
			}
		}
	}
}

// Events are tagged with their monitor and ?monitor= filters both the poll
// and the NDJSON tail without disturbing the feed-level cursor.
func TestMonitorTaggedEventsAndFilter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "tagged", ParamsJSON{M: 2, K: 3, Eps: 1})
	addMonitor(t, ts.URL, "tagged", MonitorSpec{ID: "quick", Params: ParamsJSON{M: 2, K: 1, Eps: 1}})

	// Tail only the quick monitor's events, from the start.
	resp, err := http.Get(ts.URL + "/v1/feeds/tagged/events?monitor=quick")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan Event, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev Event
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				lines <- ev
			}
		}
		close(lines)
	}()

	// Two objects together for ticks 0..3, apart at 4: the default (k=3)
	// and quick (k=1) monitors both close a convoy at the split.
	for tick := model.Tick(0); tick < 4; tick++ {
		pushTick(t, ts.URL, "tagged", TickBatch{T: tick, Positions: []Position{
			{ID: "a", X: float64(tick), Y: 0}, {ID: "b", X: float64(tick), Y: 0.5}}})
	}
	pushTick(t, ts.URL, "tagged", TickBatch{T: 4, Positions: []Position{
		{ID: "a", X: 0, Y: 0}, {ID: "b", X: 70, Y: 70}}})

	var poll EventsResponse
	doJSON(t, "GET", ts.URL+"/v1/feeds/tagged/convoys", nil, http.StatusOK, &poll)
	byMonitor := map[string]int{}
	for _, ev := range poll.Events {
		byMonitor[ev.Monitor]++
	}
	if byMonitor[DefaultMonitorID] == 0 || byMonitor["quick"] == 0 {
		t.Fatalf("events by monitor = %v, want both monitors tagged", byMonitor)
	}

	var filtered EventsResponse
	doJSON(t, "GET", ts.URL+"/v1/feeds/tagged/convoys?monitor=quick", nil, http.StatusOK, &filtered)
	if len(filtered.Events) != byMonitor["quick"] || filtered.NextSeq != poll.NextSeq {
		t.Fatalf("filtered poll = %d events (next %d), want %d (next %d)",
			len(filtered.Events), filtered.NextSeq, byMonitor["quick"], poll.NextSeq)
	}
	for _, ev := range filtered.Events {
		if ev.Monitor != "quick" {
			t.Fatalf("filtered poll leaked %+v", ev)
		}
	}

	// The filtered tail saw quick's events and nothing else.
	deadline := time.After(5 * time.Second)
	for n := 0; n < byMonitor["quick"]; n++ {
		select {
		case ev, ok := <-lines:
			if !ok {
				t.Fatal("stream ended early")
			}
			if ev.Monitor != "quick" {
				t.Fatalf("filtered tail leaked %+v", ev)
			}
		case <-deadline:
			t.Fatal("timed out waiting for filtered events")
		}
	}
}

// A rejected tick batch must not leave its labels behind: validation
// failures roll the label table back, so clients hammering the feed with
// bad batches of ever-new IDs cannot grow its memory.
func TestRejectedBatchRollsBackLabels(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "clean", ParamsJSON{M: 2, K: 2, Eps: 1})
	pushTick(t, ts.URL, "clean", TickBatch{T: 0, Positions: []Position{
		{ID: "a", X: 0, Y: 0}, {ID: "b", X: 0.5, Y: 0}}})

	// Fresh labels + a duplicate: rejected, and the fresh labels roll back.
	doJSON(t, "POST", ts.URL+"/v1/feeds/clean/ticks",
		TicksRequest{Ticks: []TickBatch{{T: 1, Positions: []Position{
			{ID: "new1", X: 0, Y: 0}, {ID: "new2", X: 1, Y: 1}, {ID: "new1", X: 2, Y: 2}}}}},
		http.StatusBadRequest, nil)
	// Fresh labels + a stale tick: same.
	doJSON(t, "POST", ts.URL+"/v1/feeds/clean/ticks",
		TicksRequest{Ticks: []TickBatch{{T: 0, Positions: []Position{
			{ID: "new3", X: 0, Y: 0}, {ID: "new4", X: 1, Y: 1}}}}},
		http.StatusBadRequest, nil)

	var st FeedStatus
	doJSON(t, "GET", ts.URL+"/v1/feeds/clean", nil, http.StatusOK, &st)
	if st.Objects != 2 {
		t.Fatalf("objects = %d after rejected batches, want 2 (a, b)", st.Objects)
	}
	// The feed still works, and a label from a rejected batch is re-usable.
	resp := pushTick(t, ts.URL, "clean", TickBatch{T: 1, Positions: []Position{
		{ID: "a", X: 1, Y: 0}, {ID: "new1", X: 1.5, Y: 0}}})
	if resp.Accepted != 1 {
		t.Fatalf("clean tick after rejections: %+v", resp)
	}
}

// Filtering by a monitor that does not exist is a 404, not a silently
// empty result (a typo'd dispatcher must hear about it).
func TestMonitorFilterUnknownIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "typo", ParamsJSON{M: 2, K: 2, Eps: 1})
	doJSON(t, "GET", ts.URL+"/v1/feeds/typo/convoys?monitor=defualt", nil, http.StatusNotFound, nil)
	resp, err := http.Get(ts.URL + "/v1/feeds/typo/events?monitor=defualt")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("filtered tail with unknown monitor: status %d, want 404", resp.StatusCode)
	}
	// The real monitor still filters fine.
	doJSON(t, "GET", ts.URL+"/v1/feeds/typo/convoys?monitor="+DefaultMonitorID, nil, http.StatusOK, nil)
}

// Deleting a feed (and closing the server) drains every monitor in the
// table, so no monitor's open convoys are lost on shutdown.
func TestFeedShutdownDrainsAllMonitors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "gone", ParamsJSON{M: 2, K: 3, Eps: 1})
	addMonitor(t, ts.URL, "gone", MonitorSpec{ID: "second", Params: ParamsJSON{M: 2, K: 2, Eps: 1}})
	for tick := model.Tick(0); tick < 5; tick++ {
		pushTick(t, ts.URL, "gone", TickBatch{T: tick, Positions: []Position{
			{ID: "x", X: float64(tick), Y: 0}, {ID: "y", X: float64(tick), Y: 0.5}}})
	}
	var del FeedCloseResponse
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/gone", nil, http.StatusOK, &del)
	if len(del.Drained) != 2 {
		t.Fatalf("drained = %+v, want one open convoy per monitor", del.Drained)
	}
	for _, c := range del.Drained {
		if c.Lifetime != 5 || len(c.Objects) != 2 {
			t.Errorf("drained convoy = %+v", c)
		}
	}
}

// A monitor added mid-stream starts chaining at the next tick: it answers
// its query over the suffix it saw, not the feed's full history.
func TestMonitorAddedMidStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "late", ParamsJSON{M: 2, K: 2, Eps: 1})
	pair := func(tick model.Tick) TickBatch {
		return TickBatch{T: tick, Positions: []Position{
			{ID: "a", X: float64(tick), Y: 0}, {ID: "b", X: float64(tick), Y: 0.5}}}
	}
	for tick := model.Tick(0); tick < 3; tick++ {
		pushTick(t, ts.URL, "late", pair(tick))
	}
	addMonitor(t, ts.URL, "late", MonitorSpec{ID: "late-joiner", Params: ParamsJSON{M: 2, K: 2, Eps: 1}})
	for tick := model.Tick(3); tick < 6; tick++ {
		pushTick(t, ts.URL, "late", pair(tick))
	}
	var del MonitorCloseResponse
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/late/monitors/late-joiner", nil, http.StatusOK, &del)
	if len(del.Drained) != 1 || del.Drained[0].Start != 3 || del.Drained[0].End != 5 {
		t.Fatalf("late joiner drained = %+v, want [3,5]", del.Drained)
	}
	// The default monitor saw the whole stream.
	var del2 MonitorCloseResponse
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/late/monitors/"+DefaultMonitorID, nil, http.StatusOK, &del2)
	if len(del2.Drained) != 1 || del2.Drained[0].Start != 0 || del2.Drained[0].End != 5 {
		t.Fatalf("default drained = %+v, want [0,5]", del2.Drained)
	}
}
