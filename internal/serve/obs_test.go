package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// explainStages returns the stage names of a query profile.
func explainStages(ex *ExplainJSON) []string {
	names := make([]string, len(ex.Stages))
	for i, s := range ex.Stages {
		names[i] = s.Name
	}
	return names
}

func wantStages(t *testing.T, ex *ExplainJSON, want ...string) {
	t.Helper()
	if ex == nil {
		t.Fatal("no explain profile in response")
	}
	got := explainStages(ex)
	if len(got) != len(want) {
		t.Fatalf("stages = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("stages = %v, want %v", got, want)
		}
	}
	var sum float64
	for _, s := range ex.Stages {
		sum += s.DurationMS
	}
	if sum > ex.TotalMS+0.5 {
		t.Fatalf("stage sum %.3fms exceeds total %.3fms", sum, ex.TotalMS)
	}
	if len(ex.TraceID) != 32 {
		t.Fatalf("explain trace_id = %q, want 32 hex digits", ex.TraceID)
	}
}

// wantLoad checks a batch profile's first stage: where the dataset came
// from, how many bytes it was, and a timing for each step of the load.
func wantLoad(t *testing.T, ex *ExplainJSON, dataset string, bytes int) {
	t.Helper()
	load := ex.Stages[0]
	if load.Name != "load" || load.Attrs["dataset"] != dataset || load.Attrs["bytes"] != strconv.Itoa(bytes) {
		t.Fatalf("load stage = %+v, want dataset=%s bytes=%d", load, dataset, bytes)
	}
	for _, attr := range []string{"read_ms", "digest_ms", "decode_ms"} {
		if _, err := strconv.ParseFloat(load.Attrs[attr], 64); err != nil {
			t.Errorf("load stage %s = %q: %v", attr, load.Attrs[attr], err)
		}
	}
}

// TestQueryExplainStages pins the ?explain=true contract end to end: the
// stage set matches the algorithm, stage durations nest inside the total,
// and explain queries always run the discovery (cache bypassed on the way
// in, answer cached on the way out).
func TestQueryExplainStages(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := fixtureCSV(t)

	cmc := postQuery(t, ts.URL+"/v1/query?m=2&k=5&e=1&algo=cmc&explain=true", body, http.StatusOK)
	wantStages(t, cmc.Explain, "load", "scan")
	wantLoad(t, cmc.Explain, "parsed", len(body))
	if cmc.Cache != "miss" {
		t.Fatalf("explain query cache = %q, want miss", cmc.Cache)
	}

	star := postQuery(t, ts.URL+"/v1/query?m=2&k=5&e=1&explain=true", body, http.StatusOK)
	wantStages(t, star.Explain, "load", "simplify", "filter", "refine")
	wantLoad(t, star.Explain, "resident", len(body)) // parsed by the query before

	// A plain query has no profile and hits the cache the explain run fed.
	plain := postQuery(t, ts.URL+"/v1/query?m=2&k=5&e=1&algo=cmc", body, http.StatusOK)
	if plain.Explain != nil {
		t.Fatalf("plain query got a profile: %+v", plain.Explain)
	}
	if plain.Cache != "hit" {
		t.Fatalf("plain query after explain: cache = %q, want hit", plain.Cache)
	}

	// Explain bypasses that cache: the profile must describe this run.
	again := postQuery(t, ts.URL+"/v1/query?m=2&k=5&e=1&algo=cmc&explain=true", body, http.StatusOK)
	if again.Cache != "miss" {
		t.Fatalf("repeat explain query cache = %q, want miss (recomputed)", again.Cache)
	}
	wantStages(t, again.Explain, "load", "scan")

	// A malformed explain value is a 400, not a silent false.
	resp, err := http.Post(ts.URL+"/v1/query?m=2&k=5&e=1&explain=banana", "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("explain=banana: status %d, want 400", resp.StatusCode)
	}
}

// TestQueryExplainJSONBody covers the path-referencing JSON form: explain
// requested in the body, profile in the answer.
func TestQueryExplainJSONBody(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "db.csv"), fixtureCSV(t), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{DataDir: dir})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	body, _ := json.Marshal(QueryRequest{
		Path: "db.csv", QuerySpec: wire.QuerySpec{Params: wire.ParamsJSON{M: 2, K: 5, Eps: 1}, Algo: "cmc", Explain: true},
	})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	wantStages(t, qr.Explain, "load", "scan")
	wantLoad(t, qr.Explain, "parsed", len(fixtureCSV(t)))
}

// TestTraceparentThroughHTTP pins the W3C round trip: a sampled incoming
// traceparent is continued (same trace ID, the server's own span ID in
// the response header), recorded in the tracer's ring with the request's
// route and status, and stamped as an exemplar on the latency histogram.
func TestTraceparentThroughHTTP(t *testing.T) {
	tr := trace.NewTracer()
	s := New(Config{Tracer: tr})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	const wantTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("GET", ts.URL+"/v1/healthz", nil)
	req.Header.Set("traceparent", "00-"+wantTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	tid, sid, sampled, ok := trace.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || !sampled {
		t.Fatalf("bad response traceparent %q", resp.Header.Get("traceparent"))
	}
	if tid.String() != wantTrace {
		t.Fatalf("response continues trace %s, want %s", tid, wantTrace)
	}
	if sid.String() == "00f067aa0ba902b7" {
		t.Fatal("response span ID must be the server's own, not the caller's")
	}

	recent := tr.Recent(0)
	if len(recent) != 1 {
		t.Fatalf("ring has %d traces, want 1", len(recent))
	}
	got := recent[0]
	if got.TraceID != wantTrace || got.Root == nil || got.Root.Name != "http" {
		t.Fatalf("recorded trace = %+v", got)
	}
	if got.Root.Attrs["route"] != "GET /v1/healthz" || got.Root.Attrs["status"] != "200" {
		t.Fatalf("root attrs = %v", got.Root.Attrs)
	}
	if got.Root.SpanID != sid.String() {
		t.Fatalf("response header span %s is not the recorded root %s", sid, got.Root.SpanID)
	}

	// The traced request's ID lands as an exemplar on the latency bucket.
	var om bytes.Buffer
	s.cfg.metrics.reg.WriteOpenMetrics(&om)
	if !strings.Contains(om.String(), `trace_id="`+wantTrace+`"`) {
		t.Fatal("OpenMetrics exposition missing the request's trace exemplar")
	}

	// An unsampled remote trace with sampling off stays unrecorded: no
	// response header, nothing in the ring.
	req2, _ := http.NewRequest("GET", ts.URL+"/v1/healthz", nil)
	req2.Header.Set("traceparent", "00-aaaabbbbccccddddeeeeffff00001111-00f067aa0ba902b7-00")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if h := resp2.Header.Get("traceparent"); h != "" {
		t.Fatalf("unsampled request answered with traceparent %q", h)
	}
	if n := len(tr.Recent(0)); n != 1 {
		t.Fatalf("ring has %d traces after unsampled request, want still 1", n)
	}
}

// TestSlowRequestLog pins the slow-query log: with SlowQuery armed, every
// over-threshold request emits one structured record carrying the request
// and trace IDs and the full span tree.
func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{
		Logger:    slog.New(slog.NewJSONHandler(&buf, nil)),
		SlowQuery: time.Nanosecond, // everything is slow
	})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	postQuery(t, ts.URL+"/v1/query?m=2&k=5&e=1&algo=cmc", fixtureCSV(t), http.StatusOK)

	var slow map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		if rec["msg"] == "slow request" {
			slow = rec
			break
		}
	}
	if slow == nil {
		t.Fatalf("no slow-request record in log:\n%s", buf.String())
	}
	for _, key := range []string{"request_id", "trace_id", "duration_ms", "route", "status"} {
		if _, ok := slow[key]; !ok {
			t.Fatalf("slow record missing %q: %v", key, slow)
		}
	}
	tree, ok := slow["trace"].(map[string]any)
	if !ok {
		t.Fatalf("slow record has no span tree: %v", slow)
	}
	root, ok := tree["root"].(map[string]any)
	if !ok || root["name"] != "http" {
		t.Fatalf("span tree root = %v", tree)
	}
	if tree["trace_id"] != slow["trace_id"] {
		t.Fatalf("span tree trace %v does not match record trace %v", tree["trace_id"], slow["trace_id"])
	}
}

// TestRequestLoggerCarriesIDs pins that handler-emitted records (feed
// lifecycle) inherit the middleware's request ID.
func TestRequestLoggerCarriesIDs(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	body, _ := json.Marshal(FeedSpec{Name: "f1", Params: wire.ParamsJSON{M: 2, K: 3, Eps: 1}})
	resp, err := http.Post(ts.URL+"/v1/feeds", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create feed: status %d", resp.StatusCode)
	}

	var created map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		if rec["msg"] == "feed created" {
			created = rec
			break
		}
	}
	if created == nil {
		t.Fatalf("no feed-created record in log:\n%s", buf.String())
	}
	id, _ := created["request_id"].(string)
	if len(id) != 16 {
		t.Fatalf("feed-created record request_id = %q, want 16 hex digits", id)
	}
	if created["feed"] != "f1" {
		t.Fatalf("feed-created record = %v", created)
	}
}

func TestTracesHandler(t *testing.T) {
	tr := trace.NewTracer()
	_, sp := tr.Start(context.Background(), "op", trace.Forced())
	time.Sleep(2 * time.Millisecond)
	sp.End()

	rr := httptest.NewRecorder()
	TracesHandler(tr).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
	if rr.Code != 200 || !strings.Contains(rr.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("status=%d ct=%s", rr.Code, rr.Header().Get("Content-Type"))
	}
	var traces []trace.TraceJSON
	if err := json.Unmarshal(rr.Body.Bytes(), &traces); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(traces) != 1 || traces[0].Root.Name != "op" {
		t.Fatalf("traces = %+v", traces)
	}

	rr = httptest.NewRecorder()
	TracesHandler(tr).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces?min_ms=100000", nil))
	var none []trace.TraceJSON
	if err := json.Unmarshal(rr.Body.Bytes(), &none); err != nil || len(none) != 0 {
		t.Fatalf("min_ms filter: %s", rr.Body.String())
	}

	rr = httptest.NewRecorder()
	TracesHandler(tr).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces?min_ms=nope", nil))
	if rr.Code != 400 {
		t.Fatalf("bad min_ms: status %d", rr.Code)
	}

	rr = httptest.NewRecorder()
	TracesHandler(tr).ServeHTTP(rr, httptest.NewRequest("POST", "/debug/traces", nil))
	if rr.Code != 405 {
		t.Fatalf("POST: status %d", rr.Code)
	}
}
