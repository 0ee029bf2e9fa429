package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
)

// newShardFleet starts n shard servers behind request-counting proxies and
// a coordinator fanning out to them. The counter tallies shard RPCs across
// the whole fleet.
func newShardFleet(t *testing.T, n int, cfg Config) (coord string, hits *atomic.Int64) {
	t.Helper()
	hits = new(atomic.Int64)
	shards := make([]string, n)
	for i := range shards {
		srv, ts := newTestServer(t, Config{ShardMode: true})
		_ = srv
		proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			u := *r.URL
			req, err := http.NewRequestWithContext(r.Context(), r.Method, ts.URL+u.Path+"?"+u.RawQuery, r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			req.Header = r.Header
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
		}))
		t.Cleanup(proxy.Close)
		shards[i] = proxy.URL
	}
	cfg.Shards = shards
	_, ts := newTestServer(t, cfg)
	return ts.URL, hits
}

func TestShardedEqualsSingleNode(t *testing.T) {
	csv := fixtureCSV(t)
	_, plain := newTestServer(t, Config{})
	want := postQuery(t, plain.URL+"/v1/query?m=2&k=5&e=1", csv, http.StatusOK)

	for _, n := range []int{1, 2, 3} {
		coord, _ := newShardFleet(t, n, Config{})
		for _, algo := range []string{"", "&algo=cmc", "&algo=cuts"} {
			got := postQuery(t, coord+"/v1/query?m=2&k=5&e=1"+algo, csv, http.StatusOK)
			if !reflect.DeepEqual(got.Convoys, want.Convoys) {
				t.Fatalf("%d shards%s: convoys = %+v, single-node = %+v", n, algo, got.Convoys, want.Convoys)
			}
			if got.Shards != n {
				t.Errorf("%d shards%s: resp.Shards = %d", n, algo, got.Shards)
			}
		}
	}

	// Local multi-partition mining (no fleet) is the same exact answer.
	part := postQuery(t, plain.URL+"/v1/query?m=2&k=5&e=1&partitions=3", csv, http.StatusOK)
	if !reflect.DeepEqual(part.Convoys, want.Convoys) {
		t.Fatalf("partitions=3 convoys = %+v, want %+v", part.Convoys, want.Convoys)
	}
}

// TestQueryPartitionsBounded: the partitions field cannot multiply a
// query's work. Asked for 10⁸ partitions of the fixture's 10 ticks at k = 5,
// the run mines at most 1 + 10/(k−1) = 3 windows — twice the span's ticks
// at most — and answers what the single pass answers. (Two servers: the
// cache key leaves the partition count out.)
func TestQueryPartitionsBounded(t *testing.T) {
	csv := fixtureCSV(t)
	_, plain := newTestServer(t, Config{})
	_, parted := newTestServer(t, Config{})
	want := postQuery(t, plain.URL+"/v1/query?m=2&k=5&e=1&algo=cuts", csv, http.StatusOK)
	got := postQuery(t, parted.URL+"/v1/query?m=2&k=5&e=1&algo=cuts&partitions=100000000", csv, http.StatusOK)
	if !reflect.DeepEqual(got.Convoys, want.Convoys) {
		t.Fatalf("partitions=10⁸ convoys = %+v, want %+v", got.Convoys, want.Convoys)
	}
	if got.Stats == nil || got.Stats.NumPartitions < 2 || got.Stats.NumPartitions > 3 {
		t.Fatalf("partitions=10⁸ ran as %+v, want 2 or 3 windows", got.Stats)
	}
}

// TestShardedStampede proves a burst of identical coordinator queries is
// deduplicated before the fan-out: N concurrent clients cost one shard RPC
// per shard, not N.
func TestShardedStampede(t *testing.T) {
	csv := fixtureCSV(t)
	coord, hits := newShardFleet(t, 2, Config{})

	const clients = 8
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		mu    sync.Mutex
		resps []QueryResponse
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(coord+"/v1/query?m=2&k=5&e=1", "text/csv", bytes.NewReader(csv))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			var out QueryResponse
			if err := unmarshalStrict(data, &out); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			resps = append(resps, out)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if n := hits.Load(); n != 2 {
		t.Fatalf("shard RPCs = %d, want 2 (one per shard: in-flight dedup + cache must absorb the stampede)", n)
	}
	if len(resps) != clients {
		t.Fatalf("completed = %d/%d", len(resps), clients)
	}
	for _, r := range resps {
		if !reflect.DeepEqual(r.Convoys, resps[0].Convoys) || r.Digest != resps[0].Digest {
			t.Fatalf("diverging answers: %+v vs %+v", r, resps[0])
		}
		if r.Cache != "miss" && r.Cache != "dedup" && r.Cache != "hit" {
			t.Fatalf("cache disposition %q", r.Cache)
		}
	}
}

func TestShardRPCGates(t *testing.T) {
	csv := fixtureCSV(t)

	// Not started with -shard: the route answers 403 in the envelope.
	_, plain := newTestServer(t, Config{})
	var ej ErrorJSON
	doJSON(t, "POST", plain.URL+"/v1/shard/query?v=1&m=2&k=5&e=1&from=0&to=9", nil, http.StatusForbidden, &ej)
	if ej.Error.Code != wire.CodeForbidden {
		t.Fatalf("disabled shard code = %q", ej.Error.Code)
	}

	_, shard := newTestServer(t, Config{ShardMode: true})
	for name, url := range map[string]string{
		"wrong version": "/v1/shard/query?v=9&m=2&k=5&e=1&from=0&to=9",
		"no version":    "/v1/shard/query?m=2&k=5&e=1&from=0&to=9",
		"no window":     "/v1/shard/query?v=1&m=2&k=5&e=1",
	} {
		resp, err := http.Post(shard.URL+url, "text/csv", bytes.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, data)
		}
		var ej ErrorJSON
		if err := unmarshalStrict(data, &ej); err != nil || ej.Error.Code != wire.CodeBadRequest {
			t.Fatalf("%s: envelope %s (err %v)", name, data, err)
		}
	}

	// Empty body on an otherwise valid shard RPC.
	doJSON(t, "POST", shard.URL+"/v1/shard/query?v=1&m=2&k=5&e=1&from=0&to=9", nil, http.StatusBadRequest, nil)

	// A well-formed shard RPC answers the window's partial.
	resp, err := http.Post(shard.URL+"/v1/shard/query?v=1&m=2&k=5&e=1&from=0&to=9", "text/csv", bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard query: status %d: %s", resp.StatusCode, data)
	}
	var sr wire.ShardQueryResponse
	if err := unmarshalStrict(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.V != wire.ShardRPCVersion || sr.From != 0 || sr.To != 9 || len(sr.Convoys) != 2 {
		t.Fatalf("shard response = %+v", sr)
	}
}

func TestQueryWindowed(t *testing.T) {
	csv := fixtureCSV(t) // ticks 0..9, two convoys of lifetime 10
	_, ts := newTestServer(t, Config{})

	full := postQuery(t, ts.URL+"/v1/query?m=2&k=5&e=1", csv, http.StatusOK)
	win := postQuery(t, ts.URL+"/v1/query?m=2&k=5&e=1&from=2&to=7", csv, http.StatusOK)
	if len(win.Convoys) != len(full.Convoys) {
		t.Fatalf("windowed convoys = %d, want %d", len(win.Convoys), len(full.Convoys))
	}
	for _, c := range win.Convoys {
		if c.Start != 2 || c.End != 7 || c.Lifetime != 6 {
			t.Fatalf("windowed convoy = %+v, want span [2,7]", c)
		}
	}
	if win.From == nil || win.To == nil || *win.From != 2 || *win.To != 7 {
		t.Fatalf("windowed response echoes From=%v To=%v", win.From, win.To)
	}

	// The window is part of the cache key: the full answer stays cached
	// beside the windowed one, and repeats of each are hits.
	if again := postQuery(t, ts.URL+"/v1/query?m=2&k=5&e=1", csv, http.StatusOK); again.Cache != "hit" {
		t.Fatalf("full repeat cache = %q", again.Cache)
	}
	if again := postQuery(t, ts.URL+"/v1/query?m=2&k=5&e=1&from=2&to=7", csv, http.StatusOK); again.Cache != "hit" {
		t.Fatalf("windowed repeat cache = %q", again.Cache)
	}

	// An empty intersection with the data is an empty answer, not an error.
	empty := postQuery(t, ts.URL+"/v1/query?m=2&k=5&e=1&from=100&to=200", csv, http.StatusOK)
	if len(empty.Convoys) != 0 {
		t.Fatalf("out-of-range window convoys = %+v", empty.Convoys)
	}
}

// TestQueryLegacyDecodeCompat pins the legacy spellings every /v1 entry
// point must keep accepting now that decoding is centralised: flat m/k/e
// JSON bodies, nested params objects, and the "eps" URL alias.
func TestQueryLegacyDecodeCompat(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "two.csv"), fixtureCSV(t), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{DataDir: dir})

	var nested QueryResponse
	doJSON(t, "POST", ts.URL+"/v1/query",
		map[string]any{"path": "two.csv", "params": map[string]any{"m": 2, "k": 5, "e": 1}},
		http.StatusOK, &nested)
	if len(nested.Convoys) != 2 {
		t.Fatalf("nested params query = %+v", nested)
	}

	for name, body := range map[string]map[string]any{
		"flat e":            {"path": "two.csv", "m": 2, "k": 5, "e": 1},
		"flat eps":          {"path": "two.csv", "m": 2, "k": 5, "eps": 1},
		"flat e beats eps":  {"path": "two.csv", "m": 2, "k": 5, "e": 1, "eps": 99},
		"nested beats flat": {"path": "two.csv", "params": map[string]any{"m": 2, "k": 5, "e": 1}, "m": 99},
	} {
		var got QueryResponse
		doJSON(t, "POST", ts.URL+"/v1/query", body, http.StatusOK, &got)
		if !reflect.DeepEqual(got.Convoys, nested.Convoys) {
			t.Fatalf("%s: convoys = %+v, want %+v", name, got.Convoys, nested.Convoys)
		}
	}

	// URL spelling: eps= is an alias of e=.
	eps := postQuery(t, ts.URL+"/v1/query?m=2&k=5&eps=1", fixtureCSV(t), http.StatusOK)
	if !reflect.DeepEqual(eps.Convoys, nested.Convoys) {
		t.Fatalf("eps alias convoys = %+v", eps.Convoys)
	}
}

// TestErrorEnvelopeSweep drives one representative failure through every
// error class the API can answer and asserts the uniform envelope: the
// right status, {"error":{"code","message"}} with the code matching the
// status, and Retry-After on overload.
func TestErrorEnvelopeSweep(t *testing.T) {
	csv := fixtureCSV(t)
	_, ts := newTestServer(t, Config{MaxFeeds: 1, MaxBodyBytes: 256})
	createFeed(t, ts.URL, "fleet", ParamsJSON{M: 2, K: 5, Eps: 1})
	// Two objects together over [MaxTick-1, MaxTick]: ticks the default
	// CuTS* cannot represent. (The upload used to hang the filter's window
	// walk, pinning a worker slot past timeout_ms and the server's cap.)
	endOfTime := []byte("obj,t,x,y\n" +
		"a,9223372036854775806,0,0\na,9223372036854775807,1,0\n" +
		"b,9223372036854775806,0,0.5\nb,9223372036854775807,1,0.5\n")

	cases := []struct {
		name   string
		method string
		url    string
		body   any
		raw    []byte
		status int
	}{
		{name: "bad params", method: "POST", url: "/v1/query?m=0&k=5&e=1", raw: []byte("x"), status: http.StatusBadRequest},
		{name: "inverted window", method: "POST", url: "/v1/query?m=2&k=5&e=1&from=9&to=2", raw: []byte("x"), status: http.StatusBadRequest},
		{name: "empty upload", method: "POST", url: "/v1/query?m=2&k=5&e=1", status: http.StatusBadRequest},
		// Eleven bytes of CTB promising 2³¹−1 samples: the reader used to
		// reserve them (51 GB) and die of an out-of-memory throw.
		{name: "ctb count beyond the upload", method: "POST", url: "/v1/query?m=3&k=180&e=8&algo=cmc",
			raw: []byte("CTB1\x01\x00\xff\xff\xff\xff\x07"), status: http.StatusBadRequest},
		{name: "ticks beyond 2^53 under cuts", method: "POST", url: "/v1/query?m=2&k=2&e=1&timeout_ms=3000", raw: endOfTime,
			status: http.StatusBadRequest},
		{name: "path refs disabled", method: "POST", url: "/v1/query",
			body: map[string]any{"path": "two.csv", "m": 2, "k": 5, "e": 1}, status: http.StatusForbidden},
		{name: "shard rpc disabled", method: "POST", url: "/v1/shard/query?v=1&m=2&k=5&e=1&from=0&to=9",
			raw: []byte("x"), status: http.StatusForbidden},
		{name: "unknown feed", method: "GET", url: "/v1/feeds/nope", status: http.StatusNotFound},
		{name: "unknown monitor", method: "GET", url: "/v1/feeds/fleet/monitors/999", status: http.StatusNotFound},
		{name: "duplicate feed", method: "POST", url: "/v1/feeds",
			body: FeedSpec{Name: "fleet", Params: ParamsJSON{M: 2, K: 5, Eps: 1}}, status: http.StatusConflict},
		{name: "feed limit", method: "POST", url: "/v1/feeds",
			body: FeedSpec{Name: "overflow", Params: ParamsJSON{M: 2, K: 5, Eps: 1}}, status: http.StatusTooManyRequests},
		{name: "history inverted window", method: "POST", url: "/v1/feeds/fleet/query",
			body: map[string]any{"m": 2, "k": 5, "e": 1, "from": 9, "to": 2}, status: http.StatusBadRequest},
		{name: "oversized upload", method: "POST", url: "/v1/query?m=2&k=5&e=1", raw: csv,
			status: http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rd io.Reader
			ct := "text/csv"
			if tc.body != nil {
				data, err := json.Marshal(tc.body)
				if err != nil {
					t.Fatal(err)
				}
				rd, ct = bytes.NewReader(data), "application/json"
			} else if tc.raw != nil {
				rd = bytes.NewReader(tc.raw)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.url, rd)
			if err != nil {
				t.Fatal(err)
			}
			if rd != nil {
				req.Header.Set("Content-Type", ct)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d (want %d): %s", resp.StatusCode, tc.status, data)
			}
			var ej ErrorJSON
			if err := unmarshalStrict(data, &ej); err != nil {
				t.Fatalf("not the envelope: %s (%v)", data, err)
			}
			if want := wire.CodeForStatus(tc.status); ej.Error.Code != want {
				t.Fatalf("code = %q, want %q (%s)", ej.Error.Code, want, data)
			}
			if strings.TrimSpace(ej.Error.Message) == "" {
				t.Fatalf("empty message: %s", data)
			}
			if tc.status == http.StatusTooManyRequests && resp.Header.Get("Retry-After") != "1" {
				t.Fatalf("Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
			}
		})
	}
	// None of it took the server down.
	if resp, err := http.Get(ts.URL + "/v1/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the sweep: %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}
	// The same upload is a fine CMC query.
	if got := postQuery(t, ts.URL+"/v1/query?m=2&k=2&e=1&algo=cmc", endOfTime, http.StatusOK); len(got.Convoys) != 1 {
		t.Errorf("algo=cmc over [MaxTick-1, MaxTick] = %+v, want the one ⟨a,b⟩ convoy", got.Convoys)
	}
}

func unmarshalStrict(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decode %q: %w", data, err)
	}
	return nil
}
