package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	g := r.Gauge("inflight", "in-flight")
	c.Inc()
	c.Add(2.5)
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(-0.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %g, want 3.5", got)
	}
	if got := g.Value(); got != 0.5 {
		t.Errorf("gauge = %g, want 0.5", got)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h_seconds", "", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %g, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-80) > 1e-9 {
		t.Errorf("histogram sum = %g, want 80", h.Sum())
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("queries_total", "queries", "algo", "outcome")
	v.With("cmc", "ok").Add(3)
	v.With("cuts*", "ok").Inc()
	v.With("cmc", "ok").Inc() // same series
	if got := v.With("cmc", "ok").Value(); got != 4 {
		t.Errorf("cmc/ok = %g, want 4", got)
	}
	if got := v.With("cuts*", "ok").Value(); got != 1 {
		t.Errorf("cuts*/ok = %g, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup_total", "")
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	// 100 observations uniformly in (0, 1]: p50 ≈ 0.5 within the first
	// bucket by interpolation.
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%10) / 10.0001) // 0 .. 0.9, all ≤ 1
	}
	if q := h.Quantile(0.5); q < 0.4 || q > 0.6 {
		t.Errorf("p50 = %g, want ≈ 0.5", q)
	}
	// Everything beyond the last bound clamps to it.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(50)
	h2.Observe(60)
	if q := h2.Quantile(0.99); q != 2 {
		t.Errorf("overflow p99 = %g, want clamp to 2", q)
	}
	// Empty histogram quantile is 0.
	if q := NewHistogram(nil).Quantile(0.9); q != 0 {
		t.Errorf("empty p90 = %g, want 0", q)
	}
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "counts a").Add(2)
	r.GaugeFunc("b_items", "live items", func() float64 { return 7 })
	hv := r.HistogramVec("lat_seconds", "latency", []float64{0.1, 1}, "route")
	hv.With("/v1/query").Observe(0.05)
	hv.With("/v1/query").Observe(0.5)
	cv := r.CounterVec("ops_total", "ops", "kind")
	cv.With(`we"ird`).Inc()

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE a_total counter\na_total 2\n",
		"# TYPE b_items gauge\nb_items 7\n",
		`lat_seconds_bucket{route="/v1/query",le="0.1"} 1`,
		`lat_seconds_bucket{route="/v1/query",le="1"} 2`,
		`lat_seconds_bucket{route="/v1/query",le="+Inf"} 2`,
		`lat_seconds_sum{route="/v1/query"} 0.55`,
		`lat_seconds_count{route="/v1/query"} 2`,
		`ops_total{kind="we\"ird"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").Add(5)
	r.CounterVec("y_total", "", "a", "b").With("v 1", "v2").Add(3)
	r.Histogram("z_seconds", "", []float64{1}).Observe(0.5)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	m, err := ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if m["x_total"] != 5 {
		t.Errorf("x_total = %g, want 5", m["x_total"])
	}
	if m[`y_total{a="v 1",b="v2"}`] != 3 {
		t.Errorf("labeled value = %v", m)
	}
	if m["z_seconds_count"] != 1 || m["z_seconds_sum"] != 0.5 {
		t.Errorf("histogram series = %v", m)
	}
	if got := Sum(m, "y_total"); got != 3 {
		t.Errorf("Sum(y_total) = %g, want 3", got)
	}
	// Sum must not leak into suffixed families.
	if got := Sum(m, "z_seconds"); got != 0 {
		t.Errorf("Sum(z_seconds) = %g, want 0 (only _bucket/_sum/_count series exist)", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"name_only",
		"x{a=\"1\" 5",
		"x notanumber",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) succeeded, want error", bad)
		}
	}
	m, err := ParseText(strings.NewReader("# HELP x y\n\nx 1 1700000000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m["x"] != 1 {
		t.Errorf("timestamped sample = %v", m)
	}
}

// TestHistogramCountMatchesInfBucket scrapes while observers run: in every
// exposition a histogram's _count must equal its +Inf bucket, as the
// Prometheus and OpenMetrics formats require.
func TestHistogramCountMatchesInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{0.1, 1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(0.5)
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 200; i++ {
		samples := scrape(t, r)
		if n, inf := samples["h_seconds_count"], samples[`h_seconds_bucket{le="+Inf"}`]; n != inf {
			t.Fatalf("scrape %d: h_seconds_count = %g, +Inf bucket = %g", i, n, inf)
		}
	}
}

// scrape renders r the way its Handler does and parses it back: the
// exposition is the registry's one view.
func scrape(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return samples
}
