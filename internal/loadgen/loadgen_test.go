package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// newTarget hosts a fresh convoyd server with /metrics mounted next to
// the API — the same layout cmd/convoyd serves — and returns its registry
// and URL.
func newTarget(t *testing.T, cfg serve.Config) (*metrics.Registry, string) {
	t.Helper()
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	srv := serve.New(cfg)
	mux := http.NewServeMux()
	mux.Handle("/v1/", srv)
	mux.Handle("GET /metrics", reg.Handler())
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return reg, ts.URL
}

// TestMixedScenarioMatchesServerCounters is the acceptance property: the
// report's request count equals the convoyd_http_requests_total the
// generator scraped from the server it loaded.
func TestMixedScenarioMatchesServerCounters(t *testing.T) {
	_, url := newTarget(t, serve.Config{})
	rep, err := Run(context.Background(), Options{
		BaseURL:     url,
		Scenario:    "mixed",
		Duration:    400 * time.Millisecond,
		Concurrency: 3,
		Scale:       0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests issued")
	}
	if rep.Errors != 0 {
		t.Errorf("transport errors = %d, want 0", rep.Errors)
	}
	if !rep.ServerMatch {
		t.Errorf("request accounting mismatch: client %d, server %d", rep.Requests, rep.ServerRequests)
	}
	if rep.ServerRequests != rep.Requests {
		t.Errorf("ServerRequests = %d, want %d", rep.ServerRequests, rep.Requests)
	}
	if rep.Status["200"] == 0 {
		t.Errorf("no 200s in status map: %v", rep.Status)
	}
	if rep.Status["400"] != 0 {
		t.Errorf("mixed scenario produced %d bad requests: %v", rep.Status["400"], rep.Status)
	}
	// Every op the scenario defines shows up with consistent counts.
	var opSum int64
	for _, op := range rep.Ops {
		opSum += op.Requests
		if op.Requests > 0 && op.P50MS <= 0 {
			t.Errorf("op %s: p50 = %g, want > 0", op.Op, op.P50MS)
		}
	}
	if opSum != rep.Requests {
		t.Errorf("op counts sum to %d, want %d", opSum, rep.Requests)
	}
	if rep.Mode != "closed" || rep.ThroughputRPS <= 0 {
		t.Errorf("mode/throughput = %s/%g", rep.Mode, rep.ThroughputRPS)
	}
	// The report carries one sampled query profile and the runtime gauges.
	if rep.ServerError != "" {
		t.Errorf("ServerError = %q, want none", rep.ServerError)
	}
	if rep.Explain == nil || len(rep.Explain.Stages) != 2 {
		t.Errorf("no explain sample in report: %+v", rep.Explain)
	} else if st := rep.Explain.Stages; st[0].Name != "load" || st[1].Name != "scan" {
		t.Errorf("explain sample stages = %+v, want the load and the cmc scan", st)
	}
	if rep.Server["go_goroutines"] <= 0 {
		t.Errorf("no go_goroutines gauge in scraped view: %v", rep.Server)
	}
}

// TestScrapeErrorStatusDegradesGracefully pins the unreadable-exposition
// path: a target whose /metrics answers 503 with an empty body yields a
// report with a ServerError naming the URL and the status, instead of
// zeroed counters masquerading as a mismatch.
func TestScrapeErrorStatusDegradesGracefully(t *testing.T) {
	srv := serve.New(serve.Config{})
	mux := http.NewServeMux()
	mux.Handle("/v1/", srv)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(mux)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	rep, err := Run(context.Background(), Options{
		BaseURL:     ts.URL,
		Scenario:    "batch",
		Duration:    100 * time.Millisecond,
		Concurrency: 1,
		Scale:       0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.ServerError, ts.URL+"/metrics") || !strings.Contains(rep.ServerError, "503") {
		t.Errorf("ServerError = %q, want the metrics URL and its 503", rep.ServerError)
	}
	if rep.ServerMatch || rep.ServerRequests != 0 {
		t.Errorf("degraded report still claims a server view: match=%v requests=%d", rep.ServerMatch, rep.ServerRequests)
	}
	if rep.Requests == 0 {
		t.Error("no requests issued")
	}
}

// TestChurnScenarioDrivesRegistry checks a second preset end to end and
// the registry lifecycle counters it is meant to exercise.
func TestChurnScenarioDrivesRegistry(t *testing.T) {
	reg, url := newTarget(t, serve.Config{})
	rep, err := Run(context.Background(), Options{
		BaseURL:     url,
		Scenario:    "churn",
		Duration:    200 * time.Millisecond,
		Concurrency: 2,
		Scale:       0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ServerMatch {
		t.Errorf("request accounting mismatch: client %d, server %d", rep.Requests, rep.ServerRequests)
	}
	created := scraped(t, reg, "convoyd_feeds_created_total")
	deleted := scraped(t, reg, "convoyd_feeds_deleted_total")
	if created == 0 || deleted == 0 {
		t.Errorf("churn left no lifecycle trace: created %g, deleted %g", created, deleted)
	}
	if live := scraped(t, reg, "convoyd_feeds"); live != 0 {
		t.Errorf("churn leaked %g feeds", live)
	}
}

// TestCancelStormTimesOut checks the cancel preset produces server-side
// 504s (aborted discoveries) without any client-side aborts.
func TestCancelStormTimesOut(t *testing.T) {
	reg, url := newTarget(t, serve.Config{})
	rep, err := Run(context.Background(), Options{
		BaseURL:     url,
		Scenario:    "cancel",
		Duration:    300 * time.Millisecond,
		Concurrency: 2,
		Scale:       0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("transport errors = %d, want 0 (deadlines are server-side)", rep.Errors)
	}
	if !rep.ServerMatch {
		t.Errorf("request accounting mismatch: client %d, server %d", rep.Requests, rep.ServerRequests)
	}
	if rep.Status["504"] == 0 {
		t.Errorf("no 504s under the storm: %v", rep.Status)
	}
	if got := scraped(t, reg, "convoyd_queries_total", `outcome="timeout"`); got == 0 {
		t.Error("server counted no timed-out queries")
	}
}

// TestOpenLoopMode drives the monitor preset at a fixed arrival rate.
func TestOpenLoopMode(t *testing.T) {
	_, url := newTarget(t, serve.Config{})
	rep, err := Run(context.Background(), Options{
		BaseURL:     url,
		Scenario:    "monitor",
		Duration:    300 * time.Millisecond,
		Concurrency: 2,
		Rate:        200,
		Scale:       0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" {
		t.Errorf("mode = %q, want open", rep.Mode)
	}
	if !rep.ServerMatch {
		t.Errorf("request accounting mismatch: client %d, server %d", rep.Requests, rep.ServerRequests)
	}
	// ~60 scheduled ticks in the window; setup adds 10 — the exact count
	// is timing-dependent, but an order-of-magnitude floor catches a
	// stuck scheduler.
	if rep.Requests < 20 {
		t.Errorf("open loop issued only %d requests", rep.Requests)
	}
}

func TestUnknownScenario(t *testing.T) {
	_, err := Run(context.Background(), Options{BaseURL: "http://127.0.0.1:1", Scenario: "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("err = %v, want unknown scenario", err)
	}
	names := ScenarioNames()
	if len(names) != 5 {
		t.Errorf("ScenarioNames = %v, want 5 presets", names)
	}
	for _, n := range names {
		if ScenarioDesc(n) == "" {
			t.Errorf("scenario %s has no description", n)
		}
	}
}

// scraped reads reg's exposition back through ParseText and adds up the
// series of family whose label set holds every matcher (`outcome="ok"`).
func scraped(t *testing.T, reg *metrics.Registry, family string, matchers ...string) float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
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
