package serve

import (
	"context"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// Regression: the cache key used to include δ/λ even for algo=cmc, which
// ignores both — equivalent CMC queries with different values missed the
// cache and recomputed. The plan key now normalizes them out for CMC while
// keeping them for the CuTS family (where they do change the run).
func TestQueryCMCCacheKeyNormalized(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	csv := fixtureCSV(t)
	base := ts.URL + "/v1/query?m=2&k=5&e=1&algo=cmc"

	first := postQuery(t, base+"&delta=1&lambda=2", csv, http.StatusOK)
	if first.Cache != "miss" {
		t.Fatalf("first cmc query cache = %q", first.Cache)
	}
	second := postQuery(t, base+"&delta=9&lambda=7", csv, http.StatusOK)
	if second.Cache != "hit" {
		t.Fatalf("equivalent cmc query with different delta/lambda: cache = %q, want hit", second.Cache)
	}

	// CuTS* queries still key on δ/λ — different values really do run
	// differently and must not share an entry.
	cutsBase := ts.URL + "/v1/query?m=2&k=5&e=1&algo=cuts*"
	if got := postQuery(t, cutsBase+"&lambda=2", csv, http.StatusOK); got.Cache != "miss" {
		t.Fatalf("first cuts* query cache = %q", got.Cache)
	}
	if got := postQuery(t, cutsBase+"&lambda=4", csv, http.StatusOK); got.Cache != "miss" {
		t.Fatalf("cuts* with different lambda: cache = %q, want miss", got.Cache)
	}
}

// The workers request field: accepted on both query styles, clamped to the
// server's MaxWorkersPerQuery, excluded from the cache key (parallel ≡
// serial), and rejected when negative.
func TestQueryWorkersCappedAndCacheNeutral(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxWorkersPerQuery: 2})
	csv := fixtureCSV(t)

	serial := postQuery(t, ts.URL+"/v1/query?m=2&k=5&e=1&workers=1", csv, http.StatusOK)
	if serial.Stats == nil || serial.Stats.Workers != 1 {
		t.Fatalf("serial stats = %+v", serial.Stats)
	}

	// workers=64 is clamped to the configured cap of 2 — but the cache
	// already holds the serial answer under the same key, so this is a hit
	// (worker count must not fragment the cache).
	cached := postQuery(t, ts.URL+"/v1/query?m=2&k=5&e=1&workers=64", csv, http.StatusOK)
	if cached.Cache != "hit" {
		t.Fatalf("workers=64 after workers=1: cache = %q, want hit", cached.Cache)
	}

	// On a fresh server (cold cache) the clamp is observable in the stats.
	_, ts2 := newTestServer(t, Config{MaxWorkersPerQuery: 2})
	capped := postQuery(t, ts2.URL+"/v1/query?m=2&k=5&e=1&workers=64", csv, http.StatusOK)
	if capped.Stats == nil || capped.Stats.Workers != 2 {
		t.Fatalf("capped stats = %+v, want workers=2", capped.Stats)
	}
	if len(capped.Convoys) != len(serial.Convoys) {
		t.Fatalf("parallel answer differs: %d vs %d convoys", len(capped.Convoys), len(serial.Convoys))
	}

	// Negative workers is a client mistake.
	resp, err := http.Post(ts2.URL+"/v1/query?m=2&k=5&e=1&workers=-3", "text/csv", strings.NewReader(string(csv)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("workers=-3 status = %d, want 400", resp.StatusCode)
	}
}

// Regression: a CSV upload containing "nan" coordinates used to parse
// cleanly and then panic the grid index inside the query engine; now it is
// rejected as a 400 at parse time.
func TestQueryUploadRejectsNonFiniteCSV(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := "obj,t,x,y\na,0,nan,0\na,1,1,1\nb,0,0,0\nb,1,1,1\n"
	resp, err := http.Post(ts.URL+"/v1/query?m=2&k=2&e=1", "text/csv", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nan CSV upload status = %d, want 400", resp.StatusCode)
	}
}

// Non-finite positions must never reach a feed's streamer. The check lives
// in feed.Feed.Ingest (standard JSON cannot carry NaN, but the feed API is also
// reachable from embedding Go code via serve.New + custom handlers, and
// defense in depth is cheap), so it is exercised at that level.
func TestFeedIngestRejectsNonFinitePositions(t *testing.T) {
	r := newRegistry(Config{}.withDefaults())
	defer r.CloseAll()
	f, err := r.Create("poison", mustParams(t))
	if err != nil {
		t.Fatal(err)
	}

	for _, bad := range [][2]float64{
		{math.NaN(), 0}, {0, math.NaN()}, {math.Inf(1), 0}, {0, math.Inf(-1)},
	} {
		resp, err := f.Ingest(context.Background(), []TickBatch{{
			T: 0,
			Positions: []wire.Position{
				{ID: "ok", X: 1, Y: 1},
				{ID: "bad", X: bad[0], Y: bad[1]},
			},
		}})
		if err == nil {
			t.Fatalf("non-finite position (%g, %g) accepted", bad[0], bad[1])
		}
		if resp.Accepted != 0 {
			t.Fatalf("poisoned batch partially accepted: %d", resp.Accepted)
		}
	}
	// The feed survives and still accepts clean ticks.
	resp, err := f.Ingest(context.Background(), []TickBatch{{
		T:         0,
		Positions: []wire.Position{{ID: "a", X: 0, Y: 0}, {ID: "b", X: 0.5, Y: 0}},
	}})
	if err != nil || resp.Accepted != 1 {
		t.Fatalf("clean tick after rejection: %v, accepted=%d", err, resp.Accepted)
	}
}

func mustParams(t *testing.T) core.Params {
	t.Helper()
	return wire.ParamsJSON{M: 2, K: 2, Eps: 1}.Params()
}
