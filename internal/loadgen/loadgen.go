// Package loadgen drives a live convoyd server over HTTP with scripted
// traffic shapes and reports what both sides measured: client-observed
// latency percentiles per operation, the server's own /metrics counters
// (convoyd_* plus go_* runtime gauges) scraped after the run, and the
// per-stage profile of one sampled explain=true query. The cmd/convoyload
// CLI is a thin wrapper around Run.
//
// Two pacing modes:
//
//   - closed loop (Rate == 0): Concurrency workers issue requests
//     back-to-back, each waiting for its response before the next — the
//     "as fast as the server allows" shape that measures capacity.
//   - open loop (Rate > 0): requests start on a fixed schedule of Rate
//     per second regardless of completions — the arrival-driven shape
//     that measures behavior under a traffic level the server does not
//     control. Iterations are spread round-robin over Concurrency
//     serialized worker states; when more than Concurrency*64 requests
//     are in flight the tick is dropped (and counted) rather than queued
//     without bound.
//
// The report's request count is exact: the run window gates *starting*
// an iteration, in-flight requests always complete, and nothing in a
// scenario aborts a request client-side. Against a fresh server this
// makes Report.Requests equal the scraped convoyd_http_requests_total —
// the invariant the end-to-end test (and Report.ServerMatch) checks.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// Options configure one load run.
type Options struct {
	// BaseURL is the convoyd API root (no trailing slash), e.g.
	// "http://127.0.0.1:8764".
	BaseURL string
	// MetricsURL is the exposition to scrape after the run. Empty means
	// BaseURL+"/metrics"; "-" disables scraping.
	MetricsURL string
	// Scenario picks the traffic shape; see Scenarios.
	Scenario string
	// Duration is the load window (default 2s). Setup requests and the
	// completion of in-flight requests fall outside it.
	Duration time.Duration
	// Concurrency is the number of closed-loop workers, and the number of
	// serialized worker states in open loop. Default 4.
	Concurrency int
	// Rate > 0 switches to open loop at this many requests/second.
	Rate float64
	// Seed drives the deterministic payload generation. Default 1.
	Seed int64
	// Scale multiplies payload sizes (database sizes, tick batch sizes);
	// 1 is the CLI default.
	Scale float64
	// Client overrides the HTTP client (default: http.Client with no
	// timeout — scenarios rely on server-side deadlines).
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.MetricsURL == "" {
		o.MetricsURL = o.BaseURL + "/metrics"
	}
	return o
}

// OpReport is one operation's client-side view.
type OpReport struct {
	Op       string  `json:"op"`
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	MeanMS   float64 `json:"mean_ms"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// Report is the outcome of one load run.
type Report struct {
	Scenario    string  `json:"scenario"`
	Mode        string  `json:"mode"` // "closed" or "open"
	Concurrency int     `json:"concurrency"`
	RateHz      float64 `json:"rate_hz,omitempty"`
	DurationMS  float64 `json:"duration_ms"`
	// Requests counts every HTTP request the generator issued, setup
	// included; Errors the transport-level failures among them.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Dropped counts open-loop ticks skipped because the in-flight cap
	// was reached (always 0 in closed loop).
	Dropped       int64            `json:"dropped,omitempty"`
	ThroughputRPS float64          `json:"throughput_rps"`
	MeanMS        float64          `json:"mean_ms"`
	P50MS         float64          `json:"p50_ms"`
	P95MS         float64          `json:"p95_ms"`
	P99MS         float64          `json:"p99_ms"`
	Ops           []OpReport       `json:"ops"`
	Status        map[string]int64 `json:"status"`
	// ServerRequests is the scraped sum of convoyd_http_requests_total;
	// ServerMatch reports whether it equals Requests (the generator's own
	// accounting), the end-to-end consistency check. Both are zero/false
	// when scraping is disabled.
	ServerRequests int64 `json:"server_requests"`
	ServerMatch    bool  `json:"server_match"`
	// Server holds scraped family sums of interest (queries, ticks,
	// events, clustering passes actual/naive, computes, go_* runtime
	// gauges).
	Server map[string]float64 `json:"server,omitempty"`
	// ServerError explains a degraded server-side view — the scrape
	// failed or the metrics URL did not answer 200 — instead of
	// presenting zeroed counters as a silent mismatch.
	ServerError string `json:"server_error,omitempty"`
	// Explain is the per-stage timing profile of one sampled
	// explain=true query issued after the load window (nil when the
	// sample failed or the server predates explain).
	Explain *wire.ExplainJSON `json:"explain,omitempty"`
}

// msBuckets are latency buckets in milliseconds for the client-side view.
var msBuckets = []float64{0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// opAgg aggregates one operation's latencies client-side.
type opAgg struct {
	h            *metrics.Histogram
	count, fails atomic.Int64
}

// client is the shared measuring HTTP client: every request any scenario
// issues goes through do, so the total count is authoritative.
type client struct {
	base string
	hc   *http.Client

	overall *metrics.Histogram
	total   atomic.Int64
	errs    atomic.Int64

	mu     sync.Mutex
	ops    map[string]*opAgg
	order  []string
	status map[int]int64
}

func newClient(o Options) *client {
	return &client{
		base:    o.BaseURL,
		hc:      o.Client,
		overall: metrics.NewHistogram(msBuckets),
		ops:     make(map[string]*opAgg),
		status:  make(map[int]int64),
	}
}

func (c *client) op(name string) *opAgg {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.ops[name]
	if !ok {
		a = &opAgg{h: metrics.NewHistogram(msBuckets)}
		c.ops[name] = a
		c.order = append(c.order, name)
	}
	return a
}

// do issues one measured request. The response body is drained and
// closed; the status code is returned (0 on transport error). Transport
// errors are counted, HTTP error statuses are not — a 4xx/5xx answer is
// the server working as told (the Status map keeps the breakdown).
func (c *client) do(ctx context.Context, op, method, path, contentType string, body []byte) (int, error) {
	code, _, err := c.roundTrip(ctx, op, method, path, contentType, body, false)
	return code, err
}

// doRead is do for the callers that need the response payload (the
// explain sample); measured and counted identically.
func (c *client) doRead(ctx context.Context, op, method, path, contentType string, body []byte) ([]byte, int, error) {
	code, data, err := c.roundTrip(ctx, op, method, path, contentType, body, true)
	return data, code, err
}

func (c *client) roundTrip(ctx context.Context, op, method, path, contentType string, body []byte, keep bool) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	a := c.op(op)
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	elapsed := float64(time.Since(t0).Microseconds()) / 1000
	c.total.Add(1)
	a.count.Add(1)
	a.h.Observe(elapsed)
	c.overall.Observe(elapsed)
	if err != nil {
		c.errs.Add(1)
		a.fails.Add(1)
		return 0, nil, err
	}
	var data []byte
	if keep {
		data, _ = io.ReadAll(resp.Body)
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	c.mu.Lock()
	c.status[resp.StatusCode]++
	c.mu.Unlock()
	return resp.StatusCode, data, nil
}

// Run executes one scenario against the target and builds the report.
// The context cancels the whole run (aborting in-flight requests — the
// only path on which the request accounting can go out of sync with the
// server's).
func Run(ctx context.Context, o Options) (Report, error) {
	o = o.withDefaults()
	sc, ok := scenarios[o.Scenario]
	if !ok {
		return Report{}, fmt.Errorf("loadgen: unknown scenario %q (have %v)", o.Scenario, ScenarioNames())
	}
	c := newClient(o)
	if err := sc.setup(ctx, c, o); err != nil {
		return Report{}, fmt.Errorf("loadgen: %s setup: %w", o.Scenario, err)
	}

	steps := make([]func(context.Context, int), o.Concurrency)
	for w := range steps {
		steps[w] = sc.worker(c, w, o)
	}

	t0 := time.Now()
	deadline := t0.Add(o.Duration)
	var dropped int64
	if o.Rate > 0 {
		dropped = runOpen(ctx, o, steps, deadline)
	} else {
		runClosed(ctx, o, steps, deadline)
	}
	elapsed := time.Since(t0)

	// The post-window sample, issued before the totals are read so the
	// request accounting stays exact on both sides: one explain=true
	// query whose stage profile rides in the report.
	explain := sampleExplain(ctx, c, o)

	rep := Report{
		Scenario:    o.Scenario,
		Mode:        "closed",
		Concurrency: o.Concurrency,
		RateHz:      o.Rate,
		DurationMS:  float64(elapsed.Microseconds()) / 1000,
		Requests:    c.total.Load(),
		Errors:      c.errs.Load(),
		Dropped:     dropped,
		MeanMS:      mean(c.overall),
		P50MS:       c.overall.Quantile(0.50),
		P95MS:       c.overall.Quantile(0.95),
		P99MS:       c.overall.Quantile(0.99),
		Status:      map[string]int64{},
	}
	if o.Rate > 0 {
		rep.Mode = "open"
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / secs
	}
	c.mu.Lock()
	for code, n := range c.status {
		rep.Status[strconv.Itoa(code)] = n
	}
	order := append([]string(nil), c.order...)
	c.mu.Unlock()
	sort.Strings(order)
	for _, name := range order {
		a := c.op(name)
		rep.Ops = append(rep.Ops, OpReport{
			Op:       name,
			Requests: a.count.Load(),
			Errors:   a.fails.Load(),
			MeanMS:   mean(a.h),
			P50MS:    a.h.Quantile(0.50),
			P95MS:    a.h.Quantile(0.95),
			P99MS:    a.h.Quantile(0.99),
		})
	}
	rep.Explain = explain
	if o.MetricsURL != "-" {
		if err := scrapeInto(ctx, o, &rep); err != nil {
			rep.ServerError = fmt.Sprintf("scrape %s: %v", o.MetricsURL, err)
		}
	}
	return rep, nil
}

// sampleExplain issues one explain=true query against a small synthetic
// database and returns its stage profile — every report carries one
// per-stage view of the server's query pipeline. A failed sample (old
// server, transport error) degrades to nil, never to a failed run.
func sampleExplain(ctx context.Context, c *client, o Options) *wire.ExplainJSON {
	db := synthCSV(scaled(8, o.Scale, 6, 24), scaled(20, o.Scale, 12, 60), o.Seed)
	data, code, err := c.doRead(ctx, "explain_sample", "POST",
		"/v1/query?m=3&k=4&e=1.5&algo=cmc&explain=true", "text/csv", db)
	if err != nil || code != http.StatusOK {
		return nil
	}
	var qr wire.QueryResponse
	if json.Unmarshal(data, &qr) != nil {
		return nil
	}
	return qr.Explain
}

// runClosed: each worker issues iterations back-to-back until the window
// ends; in-flight requests complete past the deadline.
func runClosed(ctx context.Context, o Options, steps []func(context.Context, int), deadline time.Time) {
	var wg sync.WaitGroup
	for w := range steps {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				steps[w](ctx, i)
			}
		}(w)
	}
	wg.Wait()
}

// runOpen: a ticker starts iterations at the configured rate, fanned over
// the serialized worker states round-robin; the in-flight cap sheds load
// instead of queueing it. Returns the dropped-tick count.
func runOpen(ctx context.Context, o Options, steps []func(context.Context, int), deadline time.Time) int64 {
	interval := time.Duration(float64(time.Second) / o.Rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	// The window must end even when the next tick lies beyond it (a rate
	// below 1/Duration): waiting on the ticker alone would overshoot.
	windowEnd := time.NewTimer(time.Until(deadline))
	defer windowEnd.Stop()
	locks := make([]sync.Mutex, len(steps))
	inflight := make(chan struct{}, len(steps)*64)
	var wg sync.WaitGroup
	var dropped int64
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		select {
		case <-ticker.C:
		case <-windowEnd.C:
			wg.Wait()
			return dropped
		case <-ctx.Done():
			wg.Wait()
			return dropped
		}
		select {
		case inflight <- struct{}{}:
		default:
			dropped++
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-inflight }()
			w := i % len(steps)
			locks[w].Lock()
			defer locks[w].Unlock()
			steps[w](ctx, i)
		}(i)
	}
	wg.Wait()
	return dropped
}

// scrapedFamilies are the server counters echoed into Report.Server.
var scrapedFamilies = []string{
	"convoyd_http_requests_total",
	"convoyd_queries_total",
	"convoyd_query_computes_total",
	"convoyd_feed_ticks_total",
	"convoyd_feed_events_total",
	"convoyd_feed_cluster_passes_total",
	"convoyd_feed_cluster_passes_naive_total",
	"convoyd_feeds_created_total",
	"convoyd_feeds_evicted_total",
	"convoyd_monitors",
	"go_goroutines",
	"go_gomaxprocs",
	"go_heap_alloc_bytes",
	"go_gc_pause_seconds_total",
}

// scrapeInto reads the server's /metrics and fills the report's server
// view. The middleware records a request after its handler returns — an
// instant after the client saw the response — so the scrape retries
// briefly until the server's count catches up with ours (it can only
// trail, never lead).
func scrapeInto(ctx context.Context, o Options, rep *Report) error {
	var samples map[string]float64
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, o.MetricsURL, nil)
		if err != nil {
			return err
		}
		resp, err := o.Client.Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fmt.Errorf("server answered %s; server-side counters unavailable", resp.Status)
		}
		samples, err = metrics.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		rep.ServerRequests = int64(metrics.Sum(samples, "convoyd_http_requests_total"))
		if rep.ServerRequests >= rep.Requests || attempt >= 20 || ctx.Err() != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	rep.ServerMatch = rep.ServerRequests == rep.Requests
	rep.Server = make(map[string]float64, len(scrapedFamilies))
	for _, fam := range scrapedFamilies {
		rep.Server[fam] = metrics.Sum(samples, fam)
	}
	return nil
}

func mean(h *metrics.Histogram) float64 {
	if h.Count() == 0 {
		return 0
	}
	return h.Sum() / float64(h.Count())
}

// seededRand builds a deterministic per-worker RNG.
func seededRand(seed int64, worker int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(worker)))
}
