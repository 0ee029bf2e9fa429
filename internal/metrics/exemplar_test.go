package metrics

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestExemplarExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("req_seconds", "request latency", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.ObserveExemplar(0.05, "4bf92f3577b34da6a3ce929d0e0e4736", 1700000000)
	h.ObserveExemplar(0.06, "aaaabbbbccccddddeeeeffff00001111", 1700000001) // same bucket: latest wins
	h.ObserveExemplar(0.5, "", 1700000002)                                  // empty trace ID: count only

	var plain strings.Builder
	if err := reg.WriteProm(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "#  {") || strings.Contains(plain.String(), "trace_id") {
		t.Fatalf("plain exposition leaked exemplars:\n%s", plain.String())
	}

	var om strings.Builder
	if err := reg.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	out := om.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("OpenMetrics output missing # EOF:\n%s", out)
	}
	want := `req_seconds_bucket{le="0.1"} 3 # {trace_id="aaaabbbbccccddddeeeeffff00001111"} 0.06 1700000001.000`
	if !strings.Contains(out, want) {
		t.Fatalf("want exemplar line %q in:\n%s", want, out)
	}
	if strings.Contains(out, "4bf92f") {
		t.Fatalf("overwritten exemplar survived:\n%s", out)
	}
	// The exemplar-free buckets carry no suffix.
	if !strings.Contains(out, "req_seconds_bucket{le=\"0.01\"} 1\n") {
		t.Fatalf("exemplar-free bucket malformed:\n%s", out)
	}

	// The exemplar-bearing exposition still parses, with the same values
	// as the plain one.
	got, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ParseText on OpenMetrics output: %v", err)
	}
	if got[`req_seconds_bucket{le="0.1"}`] != 3 || got["req_seconds_count"] != 4 {
		t.Fatalf("parsed = %v", got)
	}
}

func TestHandlerNegotiation(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "l", []float64{1})
	h.ObserveExemplar(0.5, "deadbeefdeadbeefdeadbeefdeadbeef", 1700000000)

	rr := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rr.Body.String(), "trace_id") {
		t.Fatalf("plain scrape got exemplars")
	}
	if !strings.Contains(rr.Header().Get("Content-Type"), "version=0.0.4") {
		t.Fatalf("plain content type: %s", rr.Header().Get("Content-Type"))
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	rr = httptest.NewRecorder()
	reg.Handler().ServeHTTP(rr, req)
	if !strings.Contains(rr.Body.String(), `trace_id="deadbeefdeadbeefdeadbeefdeadbeef"`) {
		t.Fatalf("OpenMetrics scrape missing exemplar:\n%s", rr.Body.String())
	}
	if !strings.Contains(rr.Header().Get("Content-Type"), "openmetrics-text") {
		t.Fatalf("OpenMetrics content type: %s", rr.Header().Get("Content-Type"))
	}

	rr = httptest.NewRecorder()
	reg.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics?exemplars=1", nil))
	if !strings.Contains(rr.Body.String(), "trace_id") {
		t.Fatalf("?exemplars=1 missing exemplar")
	}
}

func TestRegisterRuntime(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntime(reg)
	samples := scrape(t, reg)
	for _, name := range []string{"go_goroutines", "go_gomaxprocs", "go_heap_alloc_bytes", "go_gc_pause_seconds_total"} {
		v, ok := samples[name]
		if !ok {
			t.Fatalf("%s not registered; scrape: %v", name, samples)
		}
		if name != "go_gc_pause_seconds_total" && v <= 0 {
			t.Fatalf("%s = %v, want > 0", name, v)
		}
	}
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE go_goroutines gauge") {
		t.Fatalf("exposition missing runtime gauges:\n%s", b.String())
	}
}
