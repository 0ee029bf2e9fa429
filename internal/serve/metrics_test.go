package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/tsio"
)

// scrape reads the server's registry through its HTTP handler, the way a
// Prometheus scraper (or convoyload) would.
func scrape(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	s.MetricsRegistry().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	samples, err := metrics.ParseText(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestSnapshotQueryCounters drives the query engine through every cache
// state and checks both the exported snapshot and the /metrics view — the
// previously package-private counters the issue asked to surface.
func TestSnapshotQueryCounters(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueryWorkers: 4})
	url := ts.URL + "/v1/query?m=2&k=5&e=1"
	body := fixtureCSV(t)

	postQuery(t, url, body, http.StatusOK)             // miss
	postQuery(t, url, body, http.StatusOK)             // hit
	postQuery(t, url+"&algo=cmc", body, http.StatusOK) // second miss
	postQuery(t, ts.URL+"/v1/query?m=2&k=5&e=1&algo=nope", body, http.StatusBadRequest)

	st := srv.Snapshot()
	if st.Queries != 4 {
		t.Errorf("Queries = %d, want 4", st.Queries)
	}
	if st.CacheMisses != 2 || st.CacheHits != 1 {
		t.Errorf("misses/hits = %d/%d, want 2/1", st.CacheMisses, st.CacheHits)
	}
	if st.QueryComputes != 2 {
		t.Errorf("QueryComputes = %d, want 2", st.QueryComputes)
	}
	if st.QueriesRejected != 1 {
		t.Errorf("QueriesRejected = %d, want 1", st.QueriesRejected)
	}
	if st.QueryInflight != 0 {
		t.Errorf("QueryInflight = %d, want 0 at rest", st.QueryInflight)
	}
	if st.CacheEntries != 2 {
		t.Errorf("CacheEntries = %d, want 2", st.CacheEntries)
	}

	samples := scrape(t, srv)
	if got := metrics.Sum(samples, "convoyd_queries_total"); got != 4 {
		t.Errorf("convoyd_queries_total = %g, want 4", got)
	}
	if got := samples[`convoyd_queries_total{algo="cuts*",cache="hit",outcome="ok"}`]; got != 1 {
		t.Errorf("hit series = %g, want 1 (samples: %v)", got, samples)
	}
	if got := samples[`convoyd_queries_total{algo="invalid",cache="none",outcome="bad_request"}`]; got != 1 {
		t.Errorf("bad_request series = %g, want 1", got)
	}
	if got := samples["convoyd_query_computes_total"]; got != 2 {
		t.Errorf("convoyd_query_computes_total = %g, want 2", got)
	}
	if got := samples["convoyd_cache_entries"]; got != 2 {
		t.Errorf("convoyd_cache_entries = %g, want 2", got)
	}
	// The stats bridge folded at least one clustering pass per compute.
	if got := metrics.Sum(samples, "convoyd_query_stats_total"); got <= 0 {
		t.Errorf("convoyd_query_stats_total sum = %g, want > 0", got)
	}
	if got := samples[`convoyd_query_stats_total{stat="cluster_passes",algo="cmc"}`]; got <= 0 {
		t.Errorf("cmc cluster_passes = %g, want > 0", got)
	}
}

// TestSnapshotFeedCounters checks the feed-side meters: ticks, events,
// monitor gauge, and shared clustering passes actual vs naive.
func TestSnapshotFeedCounters(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "vans", ParamsJSON{M: 2, K: 3, Eps: 2})
	// A second monitor sharing (e, m) with the default one: two monitors,
	// one clustering pass per tick.
	doJSON(t, "POST", ts.URL+"/v1/feeds/vans/monitors",
		MonitorSpec{ID: "long", Params: ParamsJSON{M: 2, K: 5, Eps: 2}}, http.StatusCreated, nil)

	for tick := 0; tick < 16; tick++ {
		pushTick(t, ts.URL, "vans", vanBatch(model.Tick(tick)))
	}

	st := srv.Snapshot()
	if st.Feeds != 1 || st.FeedsCreated != 1 {
		t.Errorf("Feeds/FeedsCreated = %d/%d, want 1/1", st.Feeds, st.FeedsCreated)
	}
	if st.Monitors != 2 {
		t.Errorf("Monitors = %d, want 2", st.Monitors)
	}
	if st.Ticks != 16 {
		t.Errorf("Ticks = %d, want 16", st.Ticks)
	}
	if st.Positions != 48 {
		t.Errorf("Positions = %d, want 48", st.Positions)
	}
	if st.Events == 0 {
		t.Error("Events = 0, want closed convoys")
	}
	// Shared key: one pass per tick where naive would run one per monitor.
	if st.ClusterPasses != 16 {
		t.Errorf("ClusterPasses = %d, want 16", st.ClusterPasses)
	}
	if st.ClusterPassesNaive != 32 {
		t.Errorf("ClusterPassesNaive = %d, want 32", st.ClusterPassesNaive)
	}

	// Deleting the monitor then the feed returns the gauge to zero.
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/vans/monitors/long", nil, http.StatusOK, nil)
	if got := srv.Snapshot().Monitors; got != 1 {
		t.Errorf("Monitors after monitor delete = %d, want 1", got)
	}
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/vans", nil, http.StatusOK, nil)
	st = srv.Snapshot()
	if st.Monitors != 0 || st.Feeds != 0 || st.FeedsDeleted != 1 {
		t.Errorf("after feed delete: monitors=%d feeds=%d deleted=%d, want 0/0/1",
			st.Monitors, st.Feeds, st.FeedsDeleted)
	}

	samples := scrape(t, srv)
	if got := samples["convoyd_feed_cluster_passes_total"]; got != 16 {
		t.Errorf("feed_cluster_passes_total = %g, want 16", got)
	}
	if got := samples["convoyd_feed_cluster_passes_naive_total"]; got != 32 {
		t.Errorf("feed_cluster_passes_naive_total = %g, want 32", got)
	}
	if got := samples["convoyd_feed_ingest_seconds_count"]; got != 16 {
		t.Errorf("feed_ingest_seconds_count = %g, want 16", got)
	}
}

// TestDeleteWithDeadClientStillDrains pins the registry fix: a DELETE
// whose client context is already gone must still drain the unregistered
// feed — otherwise its worker leaks and the monitor gauge counts its
// table forever.
func TestDeleteWithDeadClientStillDrains(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "doomed", ParamsJSON{M: 2, K: 3, Eps: 2})
	if got := srv.Snapshot().Monitors; got != 1 {
		t.Fatalf("Monitors = %d, want 1", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is gone before the drain starts
	if _, err := srv.reg.remove(ctx, "doomed"); err != nil {
		t.Fatalf("remove with dead client: %v", err)
	}
	st := srv.Snapshot()
	if st.Monitors != 0 || st.Feeds != 0 || st.FeedsDeleted != 1 {
		t.Errorf("after dead-client delete: monitors=%d feeds=%d deleted=%d, want 0/0/1",
			st.Monitors, st.Feeds, st.FeedsDeleted)
	}
}

// TestSnapshotJanitorEvictions pins the previously untestable janitor
// counter: idle feeds evicted by the background janitor show up in the
// snapshot and on /metrics.
func TestSnapshotJanitorEvictions(t *testing.T) {
	srv, ts := newTestServer(t, Config{IdleTimeout: 30 * time.Millisecond})
	createFeed(t, ts.URL, "idle1", ParamsJSON{M: 2, K: 3, Eps: 2})
	createFeed(t, ts.URL, "idle2", ParamsJSON{M: 2, K: 3, Eps: 2})

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Snapshot()
		if st.FeedsEvicted == 2 && st.Feeds == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("janitor never evicted both feeds: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := scrape(t, srv)["convoyd_feeds_evicted_total"]; got != 2 {
		t.Errorf("convoyd_feeds_evicted_total = %g, want 2", got)
	}
}

// TestHTTPRequestMetering checks the middleware: every API request lands
// in convoyd_http_requests_total under its mux route, 404s included, and
// GET /v1/stats serves the snapshot.
func TestHTTPRequestMetering(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "f", ParamsJSON{M: 2, K: 3, Eps: 2})
	if resp, err := http.Get(ts.URL + "/v1/feeds/f"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/v1/nowhere"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	var st ServerStats
	doJSON(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK, &st)
	if st.FeedsCreated != 1 {
		t.Errorf("/v1/stats FeedsCreated = %d, want 1", st.FeedsCreated)
	}

	samples := scrape(t, srv)
	if got := samples[`convoyd_http_requests_total{route="POST /v1/feeds",code="201"}`]; got != 1 {
		t.Errorf("create-feed series = %g, want 1", got)
	}
	if got := samples[`convoyd_http_requests_total{route="GET /v1/feeds/{name}",code="200"}`]; got != 1 {
		t.Errorf("feed-status series = %g, want 1", got)
	}
	if got := samples[`convoyd_http_requests_total{route="unmatched",code="404"}`]; got != 1 {
		t.Errorf("unmatched series = %g, want 1", got)
	}
	// 4 requests total: create, status, 404, stats (the scrape itself is
	// not served by the API mux).
	if got := metrics.Sum(samples, "convoyd_http_requests_total"); got != 4 {
		t.Errorf("http_requests_total = %g, want 4", got)
	}
	if got := metrics.Sum(samples, "convoyd_http_request_seconds_count"); got != 4 {
		t.Errorf("http_request_seconds_count = %g, want 4", got)
	}
}

// TestQueryOutcomeTimeout pins the timeout outcome label end to end.
func TestQueryOutcomeTimeout(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueryWorkers: 1})
	body := seedCSVLarge(t)
	resp, err := http.Post(ts.URL+"/v1/query?m=2&k=2&e=1&timeout_ms=0.001", "text/csv",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if got := srv.Snapshot().QueriesTimedOut; got != 1 {
		t.Errorf("QueriesTimedOut = %d, want 1", got)
	}
	samples := scrape(t, srv)
	if got := samples[`convoyd_queries_total{algo="cuts*",cache="none",outcome="timeout"}`]; got != 1 {
		t.Errorf("timeout series = %g, want 1", got)
	}
}

// TestSharedRegistryRejected documents the one-registry-per-server rule:
// a second server on the same registry panics at construction instead of
// silently cross-wiring instruments.
func TestSharedRegistryRejected(t *testing.T) {
	reg := metrics.NewRegistry()
	s1 := New(Config{Metrics: reg})
	defer s1.Close()
	defer func() {
		if recover() == nil {
			t.Error("second server on the same registry did not panic")
		}
	}()
	s2 := New(Config{Metrics: reg})
	s2.Close()
}

// seedCSVLarge builds a CSV big enough that discovery cannot finish
// within a microsecond deadline.
func seedCSVLarge(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tsio.WriteCSV(&buf, randomDB(t, 7)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadmeMetricCatalogueMatchesRegistry holds README's "Metric
// catalogue" table to what a server actually registers: every convoyd_*
// family a fresh server exposes (labelled families included — the
// exposition declares a family before it has a series) has a row, and no
// row names a family that is gone.
func TestReadmeMetricCatalogueMatchesRegistry(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	srv.MetricsRegistry().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var exported []string
	for _, m := range regexp.MustCompile(`(?m)^# TYPE convoyd_(\S+) `).FindAllStringSubmatch(rec.Body.String(), -1) {
		exported = append(exported, m[1])
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### Metric catalogue")
	if !ok {
		t.Fatal(`README.md has no "### Metric catalogue" section`)
	}
	section, _, _ = strings.Cut(section, "\n#") // up to the next heading
	var documented []string
	family := regexp.MustCompile("`([a-z_]+)(?:\\{[^}`]*\\})?`")
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range family.FindAllStringSubmatch(cells[1], -1) { // the "family" column
			documented = append(documented, m[1])
		}
	}

	slices.Sort(exported)
	slices.Sort(documented)
	if len(exported) < 30 {
		t.Fatalf("only %d convoyd_ families scraped: %v", len(exported), exported)
	}
	for _, name := range exported {
		if _, ok := slices.BinarySearch(documented, name); !ok {
			t.Errorf("convoyd_%s is exported but has no row in README's metric catalogue", name)
		}
	}
	for _, name := range documented {
		if _, ok := slices.BinarySearch(exported, name); !ok {
			t.Errorf("README's metric catalogue names convoyd_%s, which the registry does not export", name)
		}
	}
	if dup := len(documented) - len(slices.Compact(slices.Clone(documented))); dup > 0 {
		t.Errorf("README's metric catalogue names %d families twice", dup)
	}
}
