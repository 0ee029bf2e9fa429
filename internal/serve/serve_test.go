package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/tsio"
	"repro/internal/wire"
)

// newTestServer starts the handler on an httptest server and tears both
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// doJSON runs one request with an optional JSON body and decodes the
// response into out (when non-nil), checking the status code.
func doJSON(t testing.TB, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, data, err)
		}
	}
}

// createFeed registers a feed and asserts success.
func createFeed(t *testing.T, base, name string, p wire.ParamsJSON) {
	t.Helper()
	var st FeedStatus
	doJSON(t, "POST", base+"/v1/feeds", FeedSpec{Name: name, Params: p}, http.StatusCreated, &st)
	if st.Name != name {
		t.Fatalf("created feed %q, want %q", st.Name, name)
	}
}

// pushTick ingests one tick batch and returns the closed convoys.
func pushTick(t *testing.T, base, name string, batch TickBatch) TicksResponse {
	t.Helper()
	var resp TicksResponse
	doJSON(t, "POST", base+"/v1/feeds/"+name+"/ticks",
		wire.TicksRequest{Ticks: []TickBatch{batch}}, http.StatusOK, &resp)
	return resp
}

// vanBatch builds Example_fleetserver's snapshot at tick t: vans a
// and b together throughout, c joining from tick 6 and everyone splitting
// at tick 14.
func vanBatch(t model.Tick) TickBatch {
	x := float64(t) * 2
	switch {
	case t < 6:
		return TickBatch{T: t, Positions: []wire.Position{
			{ID: "a", X: x, Y: 0}, {ID: "b", X: x, Y: 0.8}, {ID: "c", X: x - 40, Y: 30}}}
	case t < 14:
		return TickBatch{T: t, Positions: []wire.Position{
			{ID: "a", X: x, Y: 0}, {ID: "b", X: x, Y: 0.8}, {ID: "c", X: x, Y: 1.6}}}
	default:
		return TickBatch{T: t, Positions: []wire.Position{
			{ID: "a", X: x, Y: 0}, {ID: "b", X: x, Y: 40}, {ID: "c", X: x, Y: 80}}}
	}
}

// The event history is a ring: past HistoryLimit the oldest events are
// overwritten in place, polls still replay the retained ones oldest first,
// ?since= pages across the wrap, and each tick answers with the convoy its
// own event carries.
func TestFeedHistoryRingWraps(t *testing.T) {
	_, ts := newTestServer(t, Config{HistoryLimit: 4})
	createFeed(t, ts.URL, "ring", wire.ParamsJSON{M: 2, K: 1, Eps: 1})
	// a and b meet on even ticks and part on odd ones: event n is the
	// one-tick convoy at tick 2n, closed by tick 2n+1.
	const events = 11
	for tick := model.Tick(0); tick < 2*events; tick++ {
		resp := pushTick(t, ts.URL, "ring", TickBatch{T: tick, Positions: []wire.Position{
			{ID: "a", X: 0, Y: 0}, {ID: "b", X: 0, Y: float64(tick%2) * 10}}})
		if tick%2 == 0 {
			continue
		}
		if len(resp.Closed) != 1 || resp.Closed[0].Start != tick-1 {
			t.Fatalf("tick %d closed %+v, want the convoy at tick %d", tick, resp.Closed, tick-1)
		}
	}
	for _, tc := range []struct {
		since string
		want  []uint64
	}{
		{"", []uint64{7, 8, 9, 10}},
		{"?since=2", []uint64{7, 8, 9, 10}}, // overwritten: the retained tail answers
		{"?since=7", []uint64{7, 8, 9, 10}},
		{"?since=9", []uint64{9, 10}}, // slots 1, 2 of the ring: across the wrap
		{"?since=11", nil},
		{"?since=100", nil},
	} {
		var poll EventsResponse
		doJSON(t, "GET", ts.URL+"/v1/feeds/ring/convoys"+tc.since, nil, http.StatusOK, &poll)
		if poll.NextSeq != events || len(poll.Events) != len(tc.want) {
			t.Fatalf("poll%s = %d events, next_seq %d; want seqs %v, next_seq %d", tc.since, len(poll.Events), poll.NextSeq, tc.want, events)
		}
		for i, ev := range poll.Events {
			if ev.Seq != tc.want[i] || ev.Convoy.Start != model.Tick(2*ev.Seq) {
				t.Errorf("poll%s event %d = seq %d, convoy at tick %d; want seq %d at tick %d",
					tc.since, i, ev.Seq, ev.Convoy.Start, tc.want[i], 2*tc.want[i])
			}
		}
	}
}

func TestFeedLifecycleEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "fleet", wire.ParamsJSON{M: 2, K: 5, Eps: 1})

	var closed []ConvoyJSON
	for tick := model.Tick(0); tick < 20; tick++ {
		resp := pushTick(t, ts.URL, "fleet", vanBatch(tick))
		if resp.Accepted != 1 {
			t.Fatalf("tick %d: accepted = %d", tick, resp.Accepted)
		}
		closed = append(closed, resp.Closed...)
	}
	// The three-van convoy [6,13] and the two-van convoy [0,13] close at
	// the split; exact grouping is the streamer's raw emission.
	if len(closed) == 0 {
		t.Fatal("no convoys closed during the split")
	}
	for _, c := range closed {
		if c.End != 13 {
			t.Errorf("closed convoy ends at %d, want 13: %+v", c.End, c)
		}
	}

	// The poll endpoint replays the same events, and since= pages them.
	var poll EventsResponse
	doJSON(t, "GET", ts.URL+"/v1/feeds/fleet/convoys", nil, http.StatusOK, &poll)
	if len(poll.Events) != len(closed) {
		t.Fatalf("poll = %d events, want %d", len(poll.Events), len(closed))
	}
	var page EventsResponse
	doJSON(t, "GET", fmt.Sprintf("%s/v1/feeds/fleet/convoys?since=%d", ts.URL, poll.NextSeq), nil, http.StatusOK, &page)
	if len(page.Events) != 0 {
		t.Fatalf("since=%d returned %d events", poll.NextSeq, len(page.Events))
	}

	// Status reflects the ingestion.
	var st FeedStatus
	doJSON(t, "GET", ts.URL+"/v1/feeds/fleet", nil, http.StatusOK, &st)
	if st.Ticks != 20 || st.Objects != 3 || st.LastTick == nil || *st.LastTick != 19 {
		t.Errorf("status = %+v", st)
	}

	// Deleting drains nothing here (the split already closed everything
	// long-lived; the post-split candidates lived < k).
	var del FeedCloseResponse
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/fleet", nil, http.StatusOK, &del)
	if len(del.Drained) != 0 {
		t.Errorf("drained = %+v", del.Drained)
	}
	doJSON(t, "GET", ts.URL+"/v1/feeds/fleet", nil, http.StatusNotFound, nil)
}

func TestDeleteDrainsOpenConvoys(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "open", wire.ParamsJSON{M: 2, K: 3, Eps: 1})
	for tick := model.Tick(0); tick < 5; tick++ {
		pushTick(t, ts.URL, "open", TickBatch{T: tick, Positions: []wire.Position{
			{ID: "x", X: float64(tick), Y: 0}, {ID: "y", X: float64(tick), Y: 0.5}}})
	}
	var del FeedCloseResponse
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/open", nil, http.StatusOK, &del)
	if len(del.Drained) != 1 || del.Drained[0].Lifetime != 5 {
		t.Fatalf("drained = %+v, want one convoy of lifetime 5", del.Drained)
	}
	if got := del.Drained[0].Objects; len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("drained objects = %v", got)
	}
}

// randomDB builds a database with planted groups, wanderers, gaps and
// staggered lifespans — enough structure for CMC to find convoys and
// enough noise to stress the equivalence.
func randomDB(t *testing.T, seed int64) *model.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := model.NewDB()
	addTraj := func(samples []model.Sample) {
		tr, err := model.NewTrajectory("", samples)
		if err != nil {
			t.Fatal(err)
		}
		db.Add(tr)
	}
	const T = 40
	// Two groups of three whose members drift near a shared center; the
	// groups cross halfway through.
	for g := 0; g < 2; g++ {
		for i := 0; i < 3; i++ {
			var samples []model.Sample
			for tick := model.Tick(0); tick < T; tick++ {
				if rng.Float64() < 0.1 {
					continue // sampling gap → interpolation
				}
				cx := float64(tick) * (1 + float64(g))
				cy := 10 * float64(g)
				samples = append(samples, model.Sample{T: tick, P: geom.Pt(
					cx+rng.Float64()*0.4, cy+float64(i)*0.3+rng.Float64()*0.2)})
			}
			if len(samples) == 0 {
				samples = []model.Sample{{T: 0, P: geom.Pt(0, 0)}}
			}
			addTraj(samples)
		}
	}
	// Four wanderers with staggered lifespans.
	for i := 0; i < 4; i++ {
		var samples []model.Sample
		start := model.Tick(rng.Intn(10))
		end := model.Tick(T - rng.Intn(10))
		for tick := start; tick < end; tick++ {
			samples = append(samples, model.Sample{T: tick, P: geom.Pt(
				rng.Float64()*60-10, rng.Float64()*60-10)})
		}
		addTraj(samples)
	}
	return db
}

// oracleAnswer is internal/oracle's answer to the query, in core's type.
func oracleAnswer(db *model.DB, p core.Params) core.Result {
	var out core.Result
	for _, c := range oracle.Convoys(db, p.M, p.K, p.Eps) {
		out = append(out, core.Convoy(c))
	}
	return out
}

// wireConvoys turns a feed's wire convoys, labelled by decimal object IDs,
// back into core convoys.
func wireConvoys(t *testing.T, cs []ConvoyJSON) []core.Convoy {
	t.Helper()
	var out []core.Convoy
	for _, c := range cs {
		objs := make([]model.ObjectID, len(c.Objects))
		for i, label := range c.Objects {
			id, err := strconv.Atoi(label)
			if err != nil {
				t.Fatalf("label %q: %v", label, err)
			}
			objs[i] = id
		}
		// Wire order follows the feed's first-seen label order, not the
		// original IDs; restore the canonical order.
		sort.Ints(objs)
		out = append(out, core.Convoy{Objects: objs, Start: c.Start, End: c.End})
	}
	return out
}

// TestReplayEqualsOracle enforces the acceptance property: replaying any
// database tick by tick through a convoyd feed and canonicalizing the
// emitted convoys equals the oracle's answer on the same database — also
// when the feed is durable and the server is restarted halfway from a
// crash image of its WAL, so the second half runs on recovered state.
func TestReplayEqualsOracle(t *testing.T) {
	p := core.Params{M: 3, K: 4, Eps: 1.5}
	for seed := int64(1); seed <= 3; seed++ {
		db := randomDB(t, seed)
		want := oracleAnswer(db, p)
		if len(want) == 0 {
			t.Fatalf("seed %d: no convoys; the comparison would be vacuous", seed)
		}
		lo, hi, _ := db.TimeRange()
		for _, restart := range []bool{false, true} {
			cfg, walRoot := Config{}, filepath.Join(t.TempDir(), "data")
			if restart {
				cfg = durableConfig(walRoot)
			}
			_, ts := newTestServer(t, cfg)
			base := ts.URL
			createFeed(t, base, "replay", wire.ParamsToJSON(p))
			var emitted []core.Convoy
			err := core.ReplayTicks(db, func(tick model.Tick, ids []model.ObjectID, pts []geom.Point) error {
				if restart && tick == lo+(hi-lo)/2 {
					img := filepath.Join(t.TempDir(), "restart")
					copyTree(t, walRoot, img)
					_, tsB := newTestServer(t, durableConfig(img))
					base = tsB.URL
				}
				batch := TickBatch{T: tick, Positions: make([]wire.Position, len(ids))}
				for i, id := range ids {
					batch.Positions[i] = wire.Position{ID: strconv.Itoa(id), X: pts[i].X, Y: pts[i].Y}
				}
				emitted = append(emitted, wireConvoys(t, pushTick(t, base, "replay", batch).Closed)...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var del FeedCloseResponse
			doJSON(t, "DELETE", base+"/v1/feeds/replay", nil, http.StatusOK, &del)
			emitted = append(emitted, wireConvoys(t, del.Drained)...)

			if got := core.Canonicalize(emitted); !got.Equal(want) {
				t.Fatalf("seed %d restart=%v: replayed answer differs from the oracle\ngot:\n%v\nwant:\n%v", seed, restart, got, want)
			}
		}
	}
}

// TestConcurrentFeeds drives ≥ 8 feeds ingesting simultaneously (the
// acceptance criterion's -race workload) plus listing traffic.
func TestConcurrentFeeds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const feeds = 10
	var wg sync.WaitGroup
	for i := 0; i < feeds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("feed-%d", i)
			createFeed(t, ts.URL, name, wire.ParamsJSON{M: 2, K: 3, Eps: 1})
			for tick := model.Tick(0); tick < 25; tick++ {
				pushTick(t, ts.URL, name, TickBatch{T: tick, Positions: []wire.Position{
					{ID: "p", X: float64(tick), Y: 0},
					{ID: "q", X: float64(tick), Y: 0.5},
					{ID: "lone", X: float64(tick) * 3, Y: 40},
				}})
			}
			var del FeedCloseResponse
			doJSON(t, "DELETE", ts.URL+"/v1/feeds/"+name, nil, http.StatusOK, &del)
			if len(del.Drained) != 1 || del.Drained[0].Lifetime != 25 {
				t.Errorf("%s: drained = %+v", name, del.Drained)
			}
		}(i)
	}
	// Listing and health traffic interleaved with the ingestion.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var statuses []FeedStatus
			doJSON(t, "GET", ts.URL+"/v1/feeds", nil, http.StatusOK, &statuses)
			doJSON(t, "GET", ts.URL+"/v1/healthz", nil, http.StatusOK, nil)
		}
	}()
	wg.Wait()
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Unknown feed: every per-feed route 404s.
	doJSON(t, "GET", ts.URL+"/v1/feeds/nope", nil, http.StatusNotFound, nil)
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/nope", nil, http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/v1/feeds/nope/convoys", nil, http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/v1/feeds/nope/events", nil, http.StatusNotFound, nil)
	doJSON(t, "POST", ts.URL+"/v1/feeds/nope/ticks", TickBatch{T: 0}, http.StatusNotFound, nil)

	// Bad creations: invalid params, bad names, duplicates.
	doJSON(t, "POST", ts.URL+"/v1/feeds", FeedSpec{Name: "bad", Params: wire.ParamsJSON{M: 0, K: 0, Eps: -1}},
		http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/v1/feeds", FeedSpec{Name: "a/b", Params: wire.ParamsJSON{M: 2, K: 2, Eps: 1}},
		http.StatusBadRequest, nil)
	createFeed(t, ts.URL, "dup", wire.ParamsJSON{M: 2, K: 2, Eps: 1})
	doJSON(t, "POST", ts.URL+"/v1/feeds", FeedSpec{Name: "dup", Params: wire.ParamsJSON{M: 2, K: 2, Eps: 1}},
		http.StatusConflict, nil)

	// Non-monotonic ticks are rejected, earlier ticks stick, and the
	// error body reports how much of the batch was applied.
	pushTick(t, ts.URL, "dup", TickBatch{T: 5, Positions: []wire.Position{{ID: "a", X: 0, Y: 0}}})
	var te TicksError
	doJSON(t, "POST", ts.URL+"/v1/feeds/dup/ticks",
		wire.TicksRequest{Ticks: []TickBatch{
			{T: 6, Positions: []wire.Position{{ID: "a", X: 0, Y: 0}}},
			{T: 3, Positions: []wire.Position{{ID: "a", X: 0, Y: 0}}},
		}},
		http.StatusBadRequest, &te)
	if te.Accepted != 1 || te.Error.Message == "" {
		t.Errorf("partial-batch error = %+v, want accepted=1", te)
	}
	var st FeedStatus
	doJSON(t, "GET", ts.URL+"/v1/feeds/dup", nil, http.StatusOK, &st)
	if st.Ticks != 2 || *st.LastTick != 6 {
		t.Errorf("after rejected tick: %+v", st)
	}

	// Positions must carry ids, and one object can't appear twice in a
	// tick (a repeated ID would fake a convoy out of one real object).
	doJSON(t, "POST", ts.URL+"/v1/feeds/dup/ticks",
		wire.TicksRequest{Ticks: []TickBatch{{T: 9, Positions: []wire.Position{{X: 1, Y: 1}}}}},
		http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/v1/feeds/dup/ticks",
		wire.TicksRequest{Ticks: []TickBatch{{T: 9, Positions: []wire.Position{
			{ID: "a", X: 1, Y: 1}, {ID: "a", X: 1, Y: 1}}}}},
		http.StatusBadRequest, nil)
	resp, err := http.Post(ts.URL+"/v1/feeds/dup/ticks", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}
	doJSON(t, "GET", ts.URL+"/v1/feeds/dup/convoys?since=x", nil, http.StatusBadRequest, nil)

	// Query errors: missing params, unknown algorithm, empty upload,
	// path references disabled.
	for _, url := range []string{
		"/v1/query",
		"/v1/query?m=2&k=2&e=1&algo=nope",
	} {
		resp, err := http.Post(ts.URL+url, "text/csv", strings.NewReader("obj,t,x,y\na,0,0,0\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d", url, resp.StatusCode)
		}
	}
	resp, err = http.Post(ts.URL+"/v1/query?m=2&k=2&e=1", "text/csv", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty upload: status %d", resp.StatusCode)
	}
	doJSON(t, "POST", ts.URL+"/v1/query",
		QueryRequest{Path: "x.csv", QuerySpec: wire.QuerySpec{Params: wire.ParamsJSON{M: 2, K: 2, Eps: 1}}},
		http.StatusForbidden, nil)

	// A path that names something other than a regular file names no
	// database: 404 like a missing one, never the read's own failure as a
	// 500 — and never a worker slot parked on a FIFO nobody writes to.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	paths := []string{".", "sub", "sub/"}
	if err := mkfifo(filepath.Join(dir, "pipe")); err == nil {
		paths = append(paths, "pipe")
	} else {
		t.Logf("no FIFO row: %v", err)
	}
	_, dts := newTestServer(t, Config{DataDir: dir})
	for _, path := range paths {
		var ej wire.ErrorJSON
		doJSON(t, "POST", dts.URL+"/v1/query",
			QueryRequest{Path: path, QuerySpec: wire.QuerySpec{Params: wire.ParamsJSON{M: 2, K: 2, Eps: 1}}},
			http.StatusNotFound, &ej)
		if ej.Error.Code != wire.CodeNotFound {
			t.Errorf("path %q: error code %q, want %q", path, ej.Error.Code, wire.CodeNotFound)
		}
	}
}

// fixtureCSV renders the convoyfind test fixture: two pairs traveling
// together for ticks 0..9.
func fixtureCSV(t *testing.T) []byte {
	t.Helper()
	db := model.NewDB()
	for i, y := range []float64{0, 0.5, 50, 50.5} {
		var samples []model.Sample
		for tick := model.Tick(0); tick < 10; tick++ {
			samples = append(samples, model.Sample{T: tick, P: geom.Pt(float64(tick), y)})
		}
		tr, err := model.NewTrajectory(string(rune('a'+i)), samples)
		if err != nil {
			t.Fatal(err)
		}
		db.Add(tr)
	}
	var buf bytes.Buffer
	if err := tsio.WriteCSV(&buf, db); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postQuery(t *testing.T, url string, body []byte, wantStatus int) QueryResponse {
	t.Helper()
	resp, err := http.Post(url, "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, data)
	}
	var out QueryResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode %q: %v", data, err)
	}
	return out
}

// TestCacheHitCarriesNoStats: a cache hit runs nothing, so it reports no
// run statistics — not those of the run that filled the entry. The cache
// key leaves the worker count out, so a query at two workers after a serial
// one is a hit; it must not claim the serial run's statistics.
func TestCacheHitCarriesNoStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	csv := fixtureCSV(t)
	url := ts.URL + "/v1/query?m=2&k=5&e=1&algo=cuts"

	first := postQuery(t, url, csv, http.StatusOK)
	if first.Cache != "miss" || first.Stats == nil {
		t.Fatalf("first query = cache %q, stats %+v", first.Cache, first.Stats)
	}
	hit := postQuery(t, url+"&workers=2", csv, http.StatusOK)
	if hit.Cache != "hit" {
		t.Fatalf("second query cache = %q, want hit", hit.Cache)
	}
	if hit.Stats != nil {
		t.Fatalf("a cache hit reports stats %+v: the run that filled the entry, not this request", hit.Stats)
	}
	if hit.ElapsedMS != 0 || !reflect.DeepEqual(hit.Convoys, first.Convoys) {
		t.Fatalf("hit = %+v, want the first answer with elapsed_ms 0", hit)
	}
}

func TestQueryUploadCacheAndAlgorithms(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	csv := fixtureCSV(t)
	url := ts.URL + "/v1/query?m=2&k=5&e=1"

	first := postQuery(t, url, csv, http.StatusOK)
	if len(first.Convoys) != 2 || first.Cache != "miss" || first.Algo != AlgoCuTSStar {
		t.Fatalf("first query = %+v", first)
	}
	if first.Stats == nil || first.Stats.Variant != "CuTS*" {
		t.Fatalf("stats = %+v", first.Stats)
	}
	for _, c := range first.Convoys {
		if c.Lifetime != 10 || len(c.Objects) != 2 {
			t.Errorf("convoy = %+v", c)
		}
	}

	second := postQuery(t, url, csv, http.StatusOK)
	if second.Cache != "hit" || len(second.Convoys) != 2 {
		t.Fatalf("second query = cache %q, %d convoys", second.Cache, len(second.Convoys))
	}
	if second.Digest != first.Digest {
		t.Errorf("digest changed: %s vs %s", second.Digest, first.Digest)
	}

	// A different algorithm is a different cache key but the same answer.
	cmc := postQuery(t, url+"&algo=cmc", csv, http.StatusOK)
	if cmc.Cache != "miss" || cmc.Stats != nil || len(cmc.Convoys) != 2 {
		t.Fatalf("cmc query = %+v", cmc)
	}
	for i := range cmc.Convoys {
		a, b := cmc.Convoys[i], first.Convoys[i]
		if a.Start != b.Start || a.End != b.End || strings.Join(a.Objects, ",") != strings.Join(b.Objects, ",") {
			t.Errorf("cmc convoy %d = %+v, cuts* = %+v", i, a, b)
		}
	}
}

func TestQueryPathReferenceAndCTB(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "two.csv"), fixtureCSV(t), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{DataDir: dir})

	var resp QueryResponse
	doJSON(t, "POST", ts.URL+"/v1/query",
		QueryRequest{Path: "two.csv", QuerySpec: wire.QuerySpec{Params: wire.ParamsJSON{M: 2, K: 5, Eps: 1}}},
		http.StatusOK, &resp)
	if len(resp.Convoys) != 2 {
		t.Fatalf("path query = %+v", resp)
	}

	// Path traversal stays confined to the data dir: the ".." collapses
	// inside it, the file isn't there, and the error echoes only the
	// client's own path (no server-side layout).
	var ej wire.ErrorJSON
	doJSON(t, "POST", ts.URL+"/v1/query",
		QueryRequest{Path: "../../../etc/passwd", QuerySpec: wire.QuerySpec{Params: wire.ParamsJSON{M: 2, K: 5, Eps: 1}}},
		http.StatusNotFound, &ej)
	if strings.Contains(ej.Error.Message, dir) {
		t.Errorf("error leaks data dir: %q", ej.Error.Message)
	}

	// CTB uploads are sniffed by magic.
	db, err := tsio.ReadCSV(bytes.NewReader(fixtureCSV(t)))
	if err != nil {
		t.Fatal(err)
	}
	var ctb bytes.Buffer
	if err := tsio.WriteBinary(&ctb, db); err != nil {
		t.Fatal(err)
	}
	got := postQuery(t, ts.URL+"/v1/query?m=2&k=5&e=1", ctb.Bytes(), http.StatusOK)
	if len(got.Convoys) != 2 {
		t.Fatalf("ctb upload = %d convoys", len(got.Convoys))
	}
}

func TestEventsStreamTailsLiveConvoys(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "tail", wire.ParamsJSON{M: 2, K: 3, Eps: 1})

	// Close one convoy before subscribing (replay) and one after (live).
	for tick := model.Tick(0); tick < 4; tick++ {
		pushTick(t, ts.URL, "tail", TickBatch{T: tick, Positions: []wire.Position{
			{ID: "r1", X: float64(tick), Y: 0}, {ID: "r2", X: float64(tick), Y: 0.5}}})
	}
	pushTick(t, ts.URL, "tail", TickBatch{T: 4, Positions: []wire.Position{
		{ID: "r1", X: 0, Y: 0}, {ID: "r2", X: 50, Y: 50}}})

	resp, err := http.Get(ts.URL + "/v1/feeds/tail/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
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

	waitEvent := func(what string) Event {
		select {
		case ev, ok := <-lines:
			if !ok {
				t.Fatalf("%s: stream ended", what)
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: timed out", what)
		}
		panic("unreachable")
	}
	replayed := waitEvent("replayed event")
	if replayed.Seq != 0 || replayed.Feed != "tail" || replayed.Convoy.Lifetime != 4 {
		t.Fatalf("replayed = %+v", replayed)
	}

	// A second convoy closes while the stream is attached.
	for tick := model.Tick(5); tick < 9; tick++ {
		pushTick(t, ts.URL, "tail", TickBatch{T: tick, Positions: []wire.Position{
			{ID: "r1", X: float64(tick), Y: 0}, {ID: "r2", X: float64(tick), Y: 0.5}}})
	}
	pushTick(t, ts.URL, "tail", TickBatch{T: 9, Positions: []wire.Position{
		{ID: "r1", X: 0, Y: 0}, {ID: "r2", X: 50, Y: 50}}})
	live := waitEvent("live event")
	if live.Seq != 1 || live.Convoy.Start != 5 || live.Convoy.End != 8 {
		t.Fatalf("live = %+v", live)
	}
}

// TestEventsStreamSubscribeFirst subscribes before any event exists: the
// response headers must arrive immediately (regression: an unflushed
// header deadlocks a client that subscribes first and pushes second).
func TestEventsStreamSubscribeFirst(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "fresh", wire.ParamsJSON{M: 2, K: 2, Eps: 1})

	type getResult struct {
		resp *http.Response
		err  error
	}
	got := make(chan getResult, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/feeds/fresh/events")
		got <- getResult{resp, err}
	}()
	var stream *http.Response
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		stream = r.resp
	case <-time.After(5 * time.Second):
		t.Fatal("subscribe blocked with no events to replay")
	}
	defer stream.Body.Close()

	for tick := model.Tick(0); tick < 3; tick++ {
		pushTick(t, ts.URL, "fresh", TickBatch{T: tick, Positions: []wire.Position{
			{ID: "a", X: 0, Y: 0}, {ID: "b", X: 0.5, Y: 0}}})
	}
	pushTick(t, ts.URL, "fresh", TickBatch{T: 3, Positions: []wire.Position{
		{ID: "a", X: 0, Y: 0}, {ID: "b", X: 90, Y: 90}}})

	line := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stream.Body)
		if sc.Scan() {
			line <- sc.Text()
		}
	}()
	select {
	case l := <-line:
		var ev Event
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", l, err)
		}
		if ev.Convoy.Lifetime != 3 {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event streamed")
	}
}

func TestIdleEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{IdleTimeout: 50 * time.Millisecond})
	createFeed(t, ts.URL, "sleepy", wire.ParamsJSON{M: 2, K: 2, Eps: 1})
	deadline := time.Now().Add(5 * time.Second)
	for {
		req, _ := http.NewRequest("GET", ts.URL+"/v1/feeds/sleepy", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return // evicted
		}
		if time.Now().After(deadline) {
			t.Fatal("feed never evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestServerCloseDrainsFeeds(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	createFeed(t, ts.URL, "f", wire.ParamsJSON{M: 2, K: 2, Eps: 1})
	for tick := model.Tick(0); tick < 3; tick++ {
		pushTick(t, ts.URL, "f", TickBatch{T: tick, Positions: []wire.Position{
			{ID: "a", X: 0, Y: 0}, {ID: "b", X: 0.5, Y: 0}}})
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The feed is gone and creation is refused after shutdown.
	doJSON(t, "GET", ts.URL+"/v1/feeds/f", nil, http.StatusNotFound, nil)
	doJSON(t, "POST", ts.URL+"/v1/feeds", FeedSpec{Name: "g", Params: wire.ParamsJSON{M: 2, K: 2, Eps: 1}},
		http.StatusGone, nil)
	if err := srv.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", 1, 1)
	c.put("b", 2, 1)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", 3, 1) // evicts b (least recently used)
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c missing")
	}
	if c.len() != 2 {
		t.Errorf("len = %d", c.len())
	}
	c.put("a", 10, 1) // update moves to front, no growth
	if v, _ := c.get("a"); v != 10 {
		t.Errorf("a = %v", v)
	}
	if c.len() != 2 {
		t.Errorf("len after update = %d", c.len())
	}

	// Entries of unequal cost: the budget bounds their sum, one put may
	// evict several, and what would not fit an empty cache is not stored.
	c = newLRUCache(10)
	c.put("a", 1, 4)
	c.put("b", 2, 4)
	if n := c.put("c", 3, 8); n != 2 || c.len() != 1 || c.size() != 8 {
		t.Errorf("put of cost 8 into 4+4 of 10: evicted %d, len %d, size %d; want 2, 1, 8", n, c.len(), c.size())
	}
	if n := c.put("d", 4, 11); n != 0 || c.len() != 1 || c.size() != 8 {
		t.Errorf("put over the whole budget: evicted %d, len %d, size %d; want it ignored", n, c.len(), c.size())
	}
	if _, ok := c.get("d"); ok {
		t.Error("an entry costing more than the budget was stored")
	}
	c.put("c", 3, 2) // re-costing an entry moves the total
	if c.size() != 2 {
		t.Errorf("size after re-costing = %d, want 2", c.size())
	}
}

func TestFeedLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxFeeds: 2})
	createFeed(t, ts.URL, "one", wire.ParamsJSON{M: 2, K: 2, Eps: 1})
	createFeed(t, ts.URL, "two", wire.ParamsJSON{M: 2, K: 2, Eps: 1})
	doJSON(t, "POST", ts.URL+"/v1/feeds", FeedSpec{Name: "three", Params: wire.ParamsJSON{M: 2, K: 2, Eps: 1}},
		http.StatusTooManyRequests, nil)
	// Deleting frees a slot.
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/one", nil, http.StatusOK, nil)
	createFeed(t, ts.URL, "three", wire.ParamsJSON{M: 2, K: 2, Eps: 1})
}
