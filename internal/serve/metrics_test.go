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
	"repro/internal/wire"
)

// scrape reads the server's registry back through its exposition, the
// one view a Prometheus scraper (or convoyload) has of its counters.
func scrape(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := s.cfg.metrics.reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// sumWhere adds up the scraped series of family whose label set holds
// every matcher (`cache="hit"`); with no matcher it is metrics.Sum.
func sumWhere(samples map[string]float64, family string, matchers ...string) float64 {
	total := 0.0
next:
	for k, v := range samples {
		labels, ok := strings.CutPrefix(k, family)
		if !ok || labels != "" && labels[0] != '{' {
			continue
		}
		for _, m := range matchers {
			if !strings.Contains(labels, "{"+m) && !strings.Contains(labels, ","+m) {
				continue next
			}
		}
		total += v
	}
	return total
}

// TestSnapshotQueryCounters drives the query engine through every cache
// state and checks the /metrics view of each query counter.
func TestSnapshotQueryCounters(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueryWorkers: 4})
	url := ts.URL + "/v1/query?m=2&k=5&e=1"
	body := fixtureCSV(t)

	postQuery(t, url, body, http.StatusOK)             // miss
	postQuery(t, url, body, http.StatusOK)             // hit
	postQuery(t, url+"&algo=cmc", body, http.StatusOK) // second miss
	postQuery(t, ts.URL+"/v1/query?m=2&k=5&e=1&algo=nope", body, http.StatusBadRequest)

	samples := scrape(t, srv)
	if got := metrics.Sum(samples, "convoyd_queries_total"); got != 4 {
		t.Errorf("convoyd_queries_total = %g, want 4", got)
	}
	misses := sumWhere(samples, "convoyd_queries_total", `cache="miss"`)
	hits := sumWhere(samples, "convoyd_queries_total", `cache="hit"`)
	dedups := sumWhere(samples, "convoyd_queries_total", `cache="dedup"`)
	if misses != 2 || hits != 1 || dedups != 0 {
		t.Errorf("misses/hits/dedups = %g/%g/%g, want 2/1/0", misses, hits, dedups)
	}
	if got := sumWhere(samples, "convoyd_queries_total", `outcome="bad_request"`); got != 1 {
		t.Errorf("rejected queries = %g, want 1", got)
	}
	if got := samples["convoyd_query_inflight"]; got != 0 {
		t.Errorf("convoyd_query_inflight = %g, want 0 at rest", got)
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
	createFeed(t, ts.URL, "vans", wire.ParamsJSON{M: 2, K: 3, Eps: 2})
	// A second monitor sharing (e, m) with the default one: two monitors,
	// one clustering pass per tick.
	doJSON(t, "POST", ts.URL+"/v1/feeds/vans/monitors",
		MonitorSpec{ID: "long", Params: wire.ParamsJSON{M: 2, K: 5, Eps: 2}}, http.StatusCreated, nil)

	for tick := 0; tick < 16; tick++ {
		pushTick(t, ts.URL, "vans", vanBatch(model.Tick(tick)))
	}

	samples := scrape(t, srv)
	if samples["convoyd_feeds"] != 1 || samples["convoyd_feeds_created_total"] != 1 {
		t.Errorf("feeds/created = %g/%g, want 1/1",
			samples["convoyd_feeds"], samples["convoyd_feeds_created_total"])
	}
	if got := samples["convoyd_monitors"]; got != 2 {
		t.Errorf("convoyd_monitors = %g, want 2", got)
	}
	if got := samples["convoyd_feed_ticks_total"]; got != 16 {
		t.Errorf("feed_ticks_total = %g, want 16", got)
	}
	if got := samples["convoyd_feed_positions_total"]; got != 48 {
		t.Errorf("feed_positions_total = %g, want 48", got)
	}
	if samples["convoyd_feed_events_total"] == 0 {
		t.Error("feed_events_total = 0, want closed convoys")
	}
	// Shared key: one pass per tick where naive would run one per monitor.
	if got := samples["convoyd_feed_cluster_passes_total"]; got != 16 {
		t.Errorf("feed_cluster_passes_total = %g, want 16", got)
	}
	if got := samples["convoyd_feed_cluster_passes_naive_total"]; got != 32 {
		t.Errorf("feed_cluster_passes_naive_total = %g, want 32", got)
	}
	if got := samples["convoyd_feed_ingest_seconds_count"]; got != 16 {
		t.Errorf("feed_ingest_seconds_count = %g, want 16", got)
	}

	// Deleting the monitor then the feed returns the gauge to zero.
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/vans/monitors/long", nil, http.StatusOK, nil)
	if got := scrape(t, srv)["convoyd_monitors"]; got != 1 {
		t.Errorf("convoyd_monitors after monitor delete = %g, want 1", got)
	}
	doJSON(t, "DELETE", ts.URL+"/v1/feeds/vans", nil, http.StatusOK, nil)
	checkDrained(t, srv)
}

// checkDrained requires the scrape after one feed's delete: no monitors,
// no feeds, one deletion.
func checkDrained(t *testing.T, srv *Server) {
	t.Helper()
	samples := scrape(t, srv)
	if samples["convoyd_monitors"] != 0 || samples["convoyd_feeds"] != 0 || samples["convoyd_feeds_deleted_total"] != 1 {
		t.Errorf("after feed delete: monitors=%g feeds=%g deleted=%g, want 0/0/1",
			samples["convoyd_monitors"], samples["convoyd_feeds"], samples["convoyd_feeds_deleted_total"])
	}
}

// TestDeleteWithDeadClientStillDrains pins the registry fix: a DELETE
// whose client context is already gone must still drain the unregistered
// feed — otherwise its worker leaks and the monitor gauge counts its
// table forever.
func TestDeleteWithDeadClientStillDrains(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "doomed", wire.ParamsJSON{M: 2, K: 3, Eps: 2})
	if got := scrape(t, srv)["convoyd_monitors"]; got != 1 {
		t.Fatalf("convoyd_monitors = %g, want 1", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is gone before the drain starts
	if _, err := srv.reg.Remove(ctx, "doomed"); err != nil {
		t.Fatalf("remove with dead client: %v", err)
	}
	checkDrained(t, srv)
}

// TestSnapshotJanitorEvictions pins the previously untestable janitor
// counter: idle feeds evicted by the background janitor show up on
// /metrics.
func TestSnapshotJanitorEvictions(t *testing.T) {
	srv, ts := newTestServer(t, Config{IdleTimeout: 30 * time.Millisecond})
	createFeed(t, ts.URL, "idle1", wire.ParamsJSON{M: 2, K: 3, Eps: 2})
	createFeed(t, ts.URL, "idle2", wire.ParamsJSON{M: 2, K: 3, Eps: 2})

	deadline := time.Now().Add(5 * time.Second)
	for {
		samples := scrape(t, srv)
		evicted, live := samples["convoyd_feeds_evicted_total"], samples["convoyd_feeds"]
		if evicted == 2 && live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("janitor never evicted both feeds: evicted %g, live %g", evicted, live)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHTTPRequestMetering checks the middleware: every API request lands
// in convoyd_http_requests_total under its mux route, 404s included.
func TestHTTPRequestMetering(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createFeed(t, ts.URL, "f", wire.ParamsJSON{M: 2, K: 3, Eps: 2})
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
	// 3 requests total: create, status, 404 (the scrape itself is not
	// served by the API mux).
	if got := metrics.Sum(samples, "convoyd_http_requests_total"); got != 3 {
		t.Errorf("http_requests_total = %g, want 3", got)
	}
	if got := metrics.Sum(samples, "convoyd_http_request_seconds_count"); got != 3 {
		t.Errorf("http_request_seconds_count = %g, want 3", got)
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
	samples := scrape(t, srv)
	if got := sumWhere(samples, "convoyd_queries_total", `outcome="timeout"`); got != 1 {
		t.Errorf("timed-out queries = %g, want 1", got)
	}
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
	srv.cfg.metrics.reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
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
