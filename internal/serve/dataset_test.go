package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/tsio"
	"repro/internal/wire"
)

// The dataset store: parsed databases kept by content digest, so a query
// over content the server has parsed before skips the decode — and never
// anything else. Every query still hashes its own input.

// truckCTB writes Truck at the scale as dir/name in CTB form.
func truckCTB(t testing.TB, dir, name string, scale float64) (*model.DB, []byte) {
	t.Helper()
	db := datagen.Truck(scale, 1).Generate()
	var buf bytes.Buffer
	if err := tsio.WriteBinary(&buf, db); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return db, buf.Bytes()
}

func pathQuery(path string, m int, k int64, e float64, algo string) QueryRequest {
	return QueryRequest{Path: path, QuerySpec: wire.QuerySpec{Params: wire.ParamsJSON{M: m, K: k, Eps: e}, Algo: algo}}
}

// datasetLoads reads the store's three instruments off /metrics.
func datasetLoads(t *testing.T, s *Server) (parsed, resident, held, evictions float64) {
	t.Helper()
	m := scrape(t, s)
	return m[`convoyd_dataset_loads_total{outcome="parsed"}`], m[`convoyd_dataset_loads_total{outcome="resident"}`],
		m["convoyd_datasets_resident_bytes"], m["convoyd_dataset_evictions_total"]
}

// TestDatasetResidentStaleStat is TestPathQueryStaleMemoNeverPoisonsCache
// with the store warm: content A is resident and the memo vouches for it
// when the file becomes B behind the same stat. The query must mine B.
func TestDatasetResidentStaleStat(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{DataDir: dir})
	contentA := fixtureCSV(t) // two convoys: {a,b} and {c,d}
	contentB := bytes.ReplaceAll(contentA, []byte(",0.5\n"), []byte(",5.5\n"))
	if len(contentB) != len(contentA) || bytes.Equal(contentA, contentB) {
		t.Fatal("fixture mutation must change content but not length")
	}
	path := filepath.Join(dir, "db.csv")
	if err := os.WriteFile(path, contentA, 0o644); err != nil {
		t.Fatal(err)
	}

	// Two parameter sets: the first parses A, the second mines it resident.
	var first, warm QueryResponse
	doJSON(t, "POST", ts.URL+"/v1/query", pathQuery("db.csv", 2, 5, 1, "cmc"), http.StatusOK, &first)
	doJSON(t, "POST", ts.URL+"/v1/query", pathQuery("db.csv", 2, 6, 1, "cmc"), http.StatusOK, &warm)
	if parsed, resident, _, _ := datasetLoads(t, srv); parsed != 1 || resident != 1 {
		t.Fatalf("priming loads: parsed %g, resident %g; want 1 and 1", parsed, resident)
	}
	if len(first.Convoys) != 2 || warm.Digest != first.Digest {
		t.Fatalf("content A: %d convoys, digests %s / %s", len(first.Convoys), first.Digest, warm.Digest)
	}

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, contentB, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, st.ModTime(), st.ModTime()); err != nil {
		t.Fatal(err)
	}

	// New params: memo hit (A's digest, resident), result-cache miss. The
	// streamed hash disagrees, so the flight reads and parses B.
	var second QueryResponse
	doJSON(t, "POST", ts.URL+"/v1/query", pathQuery("db.csv", 2, 4, 1, "cmc"), http.StatusOK, &second)
	if second.Digest == first.Digest || second.Digest != hashBytes(contentB) {
		t.Fatalf("changed file answered under digest %s (A is %s)", second.Digest, first.Digest)
	}
	if len(second.Convoys) != 1 {
		t.Fatalf("content B yields %d convoys, want 1 (mined the stale resident parse)", len(second.Convoys))
	}
	if parsed, _, _, _ := datasetLoads(t, srv); parsed != 2 {
		t.Fatalf("parsed loads = %g, want 2 (B parsed)", parsed)
	}

	// A is still resident under its own digest, and still A: an upload of
	// it at B's parameters is a miss with A's answer.
	resp := postQuery(t, ts.URL+"/v1/query?m=2&k=4&e=1&algo=cmc", contentA, http.StatusOK)
	if resp.Cache != "miss" || len(resp.Convoys) != 2 || resp.Digest != first.Digest {
		t.Fatalf("upload of A: cache=%q, %d convoys, digest %s; want a miss with A's 2", resp.Cache, len(resp.Convoys), resp.Digest)
	}
	if _, resident, _, _ := datasetLoads(t, srv); resident != 2 {
		t.Fatalf("resident loads = %g, want 2 (the upload of A found it resident)", resident)
	}
}

// TestDatasetSharedAcrossConcurrentQueries mines one resident database from
// eight queries at once (run it under -race): a *model.DB is shared, never
// copied per query, so anything that wrote to it would be caught here.
func TestDatasetSharedAcrossConcurrentQueries(t *testing.T) {
	dir := t.TempDir()
	db, _ := truckCTB(t, dir, "truck.ctb", 0.1)
	srv, ts := newTestServer(t, Config{DataDir: dir, QueryWorkers: 8, CacheEntries: -1})
	lo, hi, _ := db.TimeRange()
	from, to := lo+(hi-lo)/4, hi-(hi-lo)/4

	type query struct {
		req  QueryRequest
		want []ConvoyJSON
	}
	var queries []query
	for i := 0; i < 8; i++ {
		algo, variant := "cmc", core.WithCMC()
		if i%2 == 1 {
			algo, variant = "cuts*", core.WithVariant(core.VariantCuTSStar)
		}
		req := pathQuery("truck.ctb", 2+i/4, int64(10+3*i), 8, algo)
		mined := db
		if i%4 >= 2 {
			req.From, req.To = &from, &to
			mined, _ = core.SliceTime(db, from, to)
		}
		res, err := core.NewQuery(core.WithParams(req.Params.Params()), variant).
			Run(context.Background(), mined)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]ConvoyJSON, len(res))
		for j, c := range res {
			want[j] = wire.ConvoyToJSON(c, wire.DBLabels(mined))
		}
		queries = append(queries, query{req, want})
	}

	doJSON(t, "POST", ts.URL+"/v1/query", pathQuery("truck.ctb", 3, 18, 8, "cmc"), http.StatusOK, nil) // parses it
	got := make([]QueryResponse, len(queries))
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			doJSON(t, "POST", ts.URL+"/v1/query", queries[i].req, http.StatusOK, &got[i])
		}()
	}
	wg.Wait()
	for i, q := range queries {
		if len(q.want) == 0 {
			t.Errorf("query %d has no convoy to find: its comparison is vacuous", i)
		}
		if got[i].Cache != "miss" || !reflect.DeepEqual(got[i].Convoys, q.want) {
			t.Errorf("query %d (%s m=%d k=%d windowed=%v): cache=%q with %d convoys, the serial library run has %d",
				i, q.req.Algo, q.req.Params.M, q.req.Params.K, q.req.From != nil, got[i].Cache, len(got[i].Convoys), len(q.want))
		}
	}
	if parsed, resident, _, _ := datasetLoads(t, srv); parsed != 1 || resident != 8 {
		t.Errorf("loads: %g parsed, %g resident; want 1 and 8", parsed, resident)
	}
}

// TestDatasetBudget holds the store to its byte budget: least recently used
// out first, nothing over the whole budget kept, an evicted dataset parsed
// again to the same answer.
func TestDatasetBudget(t *testing.T) {
	dir := t.TempDir()
	// n objects × 10 samples × 24 B + n one-byte labels = 241 n decoded bytes.
	write := func(name string, n int) {
		db := model.NewDB()
		for i := 0; i < n; i++ {
			samples := make([]model.Sample, 10)
			for j := range samples {
				samples[j] = model.Sample{T: model.Tick(j)}
				samples[j].P.X, samples[j].P.Y = float64(j), float64(i/2)*50+float64(i%2)*0.5
			}
			tr, err := model.NewTrajectory(string(rune('A'+i)), samples)
			if err != nil {
				t.Fatal(err)
			}
			db.Add(tr)
		}
		var buf bytes.Buffer
		if err := tsio.WriteBinary(&buf, db); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a", 4)     //  964 B
	write("b", 4)     //  964 B, the same content as a: one entry
	write("c", 6)     // 1446 B
	write("d", 8)     // 1928 B
	write("huge", 20) // 4820 B > the whole budget
	const budget = 4000
	srv, ts := newTestServer(t, Config{DataDir: dir, MaxBodyBytes: budget / datasetBudgetBodies, CacheEntries: -1})

	k := int64(1)
	query := func(name, dataset string, convoys int, wantBytes, wantEvictions float64) {
		t.Helper()
		k++ // new parameters every time; the result cache is off anyway
		req := pathQuery(name, 2, k, 1, "cmc")
		req.Explain = true
		var resp QueryResponse
		doJSON(t, "POST", ts.URL+"/v1/query", req, http.StatusOK, &resp)
		if got := resp.Explain.Stages[0].Attrs["dataset"]; got != dataset || len(resp.Convoys) != convoys {
			t.Fatalf("query of %s: dataset=%s with %d convoys, want %s with %d", name, got, len(resp.Convoys), dataset, convoys)
		}
		if _, _, held, evictions := datasetLoads(t, srv); held != wantBytes || evictions != wantEvictions || held > budget {
			t.Fatalf("after %s: %g resident bytes and %g evictions, want %g and %g", name, held, evictions, wantBytes, wantEvictions)
		}
	}
	query("a", "parsed", 2, 964, 0)
	query("b", "resident", 2, 964, 0) // by content, not by path
	query("c", "parsed", 3, 964+1446, 0)
	query("a", "resident", 2, 964+1446, 0)   // a is now fresher than c
	query("d", "parsed", 4, 964+1928, 1)     // 4338 > 4000: c goes
	query("huge", "parsed", 10, 964+1928, 1) // answered, not retained, nothing evicted for it
	query("huge", "parsed", 10, 964+1928, 1) // … so parsed again
	query("c", "parsed", 3, 1928+1446, 2)    // evicted, parsed again, same answer; a (older than d) goes
	query("d", "resident", 4, 1928+1446, 2)
}

// BenchmarkQueryShell prices what surrounds the miner in a cold query —
// Truck@1 as a 2.2 MB CTB file, referenced by path over loopback HTTP, the
// result cache off: first-touch is a server that has never seen the file
// (read, hash twice — memo and flight — decode), resident every query after
// (hash once, streamed). The miner's own ≈ 13 ms is in both.
func BenchmarkQueryShell(b *testing.B) {
	dir := b.TempDir()
	truckCTB(b, dir, "truck.ctb", 1)
	req := pathQuery("truck.ctb", 3, 180, 8, "cmc")
	serve := func() (*httptest.Server, func()) {
		srv := New(Config{DataDir: dir, CacheEntries: -1})
		ts := httptest.NewServer(srv)
		return ts, func() { ts.Close(); srv.Close() }
	}
	b.Run("first-touch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ts, stop := serve()
			b.StartTimer()
			doJSON(b, "POST", ts.URL+"/v1/query", req, http.StatusOK, nil)
			b.StopTimer()
			stop()
			b.StartTimer()
		}
	})
	b.Run("resident", func(b *testing.B) {
		ts, stop := serve()
		defer stop()
		doJSON(b, "POST", ts.URL+"/v1/query", req, http.StatusOK, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			doJSON(b, "POST", ts.URL+"/v1/query", req, http.StatusOK, nil)
		}
	})
}
