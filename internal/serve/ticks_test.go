package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// commuteStream is a run of consecutive datagen.Commute ticks in the
// spelling every client sends (json.Marshal of a wire.TicksRequest; bench/ladder
// hand-spells the same keys). A body is assembled per tick around the
// pre-encoded positions array, so a stream can be cycled past its end under
// ever-increasing tick numbers.
type commuteStream struct {
	positions [][]byte // the JSON positions array of each snapshot
	buf       []byte
}

func newCommuteStream(tb testing.TB, scale float64, ticks int) *commuteStream {
	tb.Helper()
	db := datagen.Commute(scale, 1).Generate()
	lo, hi, _ := db.TimeRange()
	from := lo + (hi-lo+1)/5 // past the ramp-up: the whole population is alive
	if int(hi-from) < ticks {
		tb.Fatalf("commute database has %d ticks past %d, need %d", hi-from, from, ticks)
	}
	s := &commuteStream{}
	for t := from; t < from+model.Tick(ticks); t++ {
		ids, pts := db.SnapshotAt(t)
		positions := make([]wire.Position, len(ids))
		for i, id := range ids {
			positions[i] = wire.Position{ID: db.Traj(id).Label, X: pts[i].X, Y: pts[i].Y}
		}
		data, err := json.Marshal(positions)
		if err != nil {
			tb.Fatal(err)
		}
		s.positions = append(s.positions, data)
	}
	return s
}

// body spells tick i; the slice is reused by the next call.
func (s *commuteStream) body(i int) []byte {
	s.buf = append(s.buf[:0], `{"ticks":[{"t":`...)
	s.buf = strconv.AppendInt(s.buf, int64(i), 10)
	s.buf = append(s.buf, `,"positions":`...)
	s.buf = append(s.buf, s.positions[i%len(s.positions)]...)
	s.buf = append(s.buf, `}]}`...)
	return s.buf
}

// ladderFeed registers bench/ladder's feed-commute table — the default
// monitor plus three, on two clustering keys — on the server at base.
func ladderFeed(tb testing.TB, base, name string) {
	tb.Helper()
	doJSON(tb, "POST", base+"/v1/feeds", FeedSpec{Name: name, Params: wire.ParamsJSON{M: 3, K: 480, Eps: 10}}, http.StatusCreated, nil)
	for _, m := range []MonitorSpec{
		{ID: "short", Params: wire.ParamsJSON{M: 3, K: 240, Eps: 10}},
		{ID: "long", Params: wire.ParamsJSON{M: 3, K: 960, Eps: 10}},
		{ID: "wide", Params: wire.ParamsJSON{M: 3, K: 480, Eps: 15}},
	} {
		doJSON(tb, "POST", base+"/v1/feeds/"+name+"/monitors", m, http.StatusCreated, nil)
	}
}

const sampledTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// postTick sends one encoded tick and fails unless it was applied.
func postTick(tb testing.TB, c *http.Client, url string, body []byte, traceparent string) {
	tb.Helper()
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := c.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("tick: status %d", resp.StatusCode)
	}
}

// tickSplit sums, over the retained traces of tick requests, the http span
// and what its decode and apply children and apply's stage attributes
// account for, in ms.
func tickSplit(tb testing.TB, traces []trace.TraceJSON) (n int, ms map[string]float64) {
	tb.Helper()
	ms = map[string]float64{}
	for _, tj := range traces {
		if tj.Root == nil || tj.Root.Attrs["route"] != "POST /v1/feeds/{name}/ticks" {
			continue
		}
		decode, apply := tj.Root.Find("decode"), tj.Root.Find("apply")
		if decode == nil || apply == nil {
			tb.Fatalf("sampled tick has no decode/apply children: %+v", tj.Root)
		}
		n++
		ms["http"] += tj.Root.DurationMS
		ms["decode"] += decode.DurationMS
		ms["apply"] += apply.DurationMS
		for _, key := range []string{"wal_append_ms", "cluster_ms", "chain_ms"} {
			v, err := strconv.ParseFloat(apply.Attrs[key], 64)
			if err != nil {
				tb.Fatalf("apply span attribute %s = %q", key, apply.Attrs[key])
			}
			ms[key] += v
		}
	}
	return n, ms
}

// TestTickSpansCoverRequest: a sampled tick POST is explained from inside —
// its decode and apply spans cover at least 80 % of the http span, and apply
// says what went to the WAL, to clustering and to chaining — while an
// unsampled one records nothing and allocates nothing for tracing.
func TestTickSpansCoverRequest(t *testing.T) {
	tr := trace.NewTracer()
	_, ts := newTestServer(t, Config{Tracer: tr, WALDir: t.TempDir(), WALFsync: wal.FsyncNever})
	ladderFeed(t, ts.URL, "f")
	url := ts.URL + "/v1/feeds/f/ticks"
	stream := newCommuteStream(t, 0.1, 40)

	before := len(tr.Recent(0))
	for i := 0; i < 20; i++ {
		postTick(t, ts.Client(), url, stream.body(i), "")
	}
	if got := len(tr.Recent(0)); got != before {
		t.Fatalf("unsampled ticks completed %d traces", got-before)
	}
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() {
		// What handleTicks does for tracing without a span; the feed's
		// stage timing is feed's TestStageTimingWithoutSpan.
		_, sp := trace.StartSpan(ctx, "decode")
		sp.Int("bytes", 1).Int("ticks", 1).End()
	}); allocs != 0 {
		t.Fatalf("unsampled tick tracing allocates: %v allocs/op", allocs)
	}

	for i := 20; i < 40; i++ {
		postTick(t, ts.Client(), url, stream.body(i), sampledTraceparent)
	}
	n, ms := tickSplit(t, tr.Recent(0))
	if n != 20 {
		t.Fatalf("ring holds %d sampled tick traces, want 20", n)
	}
	if covered := ms["decode"] + ms["apply"]; covered < 0.8*ms["http"] {
		t.Errorf("decode %.3f + apply %.3f ms cover %.0f %% of the http span's %.3f ms, want ≥ 80 %%",
			ms["decode"], ms["apply"], 100*covered/ms["http"], ms["http"])
	}
	if stages := ms["wal_append_ms"] + ms["cluster_ms"] + ms["chain_ms"]; stages <= 0 || stages > ms["apply"] {
		t.Errorf("apply stages sum to %.3f ms of an apply span of %.3f ms", stages, ms["apply"])
	}
	for _, tj := range tr.Recent(0) {
		if d := tj.Root.Find("decode"); d != nil && (d.Attrs["ticks"] != "1" || d.Attrs["bytes"] == "0") {
			t.Fatalf("decode span attrs = %v", d.Attrs)
		}
	}
}

// TestTicksRejectionUnchanged: a body the decoder rejects answers as before
// the scanner — 400, or 413 past MaxBodyBytes — and touches neither the
// label table nor the WAL.
func TestTicksRejectionUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Config{WALDir: t.TempDir(), WALFsync: wal.FsyncNever, MaxBodyBytes: 4096})
	createFeed(t, ts.URL, "f", wire.ParamsJSON{M: 2, K: 2, Eps: 1})
	url := ts.URL + "/v1/feeds/f/ticks"
	post := func(body []byte) int {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var envelope wire.ErrorJSON
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error.Message == "" {
			t.Fatalf("status %d without an error envelope (%v)", resp.StatusCode, err)
		}
		return resp.StatusCode
	}
	for _, body := range []string{
		`{"ticks":[{"t":1,"positions":[{"id":"a","x":1,"y":2}]}]} x`,
		`{"ticks":[{"t":1.5,"positions":[{"id":"a","x":1,"y":2}]}]}`,
		`{"t":1}`,
		`{"t":1,"positions":[{"id":"a","x":1e999,"y":2}]}`,
		``,
	} {
		if got := post([]byte(body)); got != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want 400", body, got)
		}
	}
	big := append([]byte(`{"t":1,"positions":[{"id":"`), bytes.Repeat([]byte("a"), 8192)...)
	big = append(big, `","x":1,"y":2}]}`...)
	if got := post(big); got != http.StatusRequestEntityTooLarge {
		t.Errorf("POST of %d bytes past MaxBodyBytes: status %d, want 413", len(big), got)
	}
	var st FeedStatus
	doJSON(t, "GET", ts.URL+"/v1/feeds/f", nil, http.StatusOK, &st)
	var ws WALStatusJSON
	doJSON(t, "GET", ts.URL+"/v1/feeds/f/wal", nil, http.StatusOK, &ws)
	if st.Objects != 0 || st.Ticks != 0 || ws.Records != 0 {
		t.Errorf("rejected bodies left %d labels, %d ticks, %d WAL records", st.Objects, st.Ticks, ws.Records)
	}
}

// BenchmarkTickRoundTrip is one tick of bench/ladder's feed-commute stream
// through a loopback HTTP round trip into a durable feed (FsyncNever) with
// the ladder's four monitors: the number feed-commute's op_p50 is made of.
// The traced variant samples every tick and reports where the server says
// the time went (README, "where a tick's time goes").
func BenchmarkTickRoundTrip(b *testing.B) {
	stream := newCommuteStream(b, 1, 1024)
	for _, bc := range []struct {
		name        string
		traceparent string
	}{
		{"plain", ""},
		{"traced", sampledTraceparent},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tr := trace.NewTracer()
			srv := New(Config{Tracer: tr, WALDir: b.TempDir(), WALFsync: wal.FsyncNever})
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			ladderFeed(b, ts.URL, "commute")
			url := ts.URL + "/v1/feeds/commute/ticks"
			const warmup = 200 // first passes are full rebuilds; the label table fills
			for i := 0; i < warmup; i++ {
				postTick(b, ts.Client(), url, stream.body(i), "")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				postTick(b, ts.Client(), url, stream.body(warmup+i), bc.traceparent)
			}
			b.StopTimer()
			if n, ms := tickSplit(b, tr.Recent(0)); n > 0 {
				for _, key := range []string{"http", "decode", "apply", "wal_append_ms", "cluster_ms", "chain_ms"} {
					b.ReportMetric(1000*ms[key]/float64(n), strings.TrimSuffix(key, "_ms")+"-µs/op")
				}
			}
		})
	}
}
