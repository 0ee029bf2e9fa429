package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// Cancellation and deduplication behavior of the batch query engine: the
// request context flows into the discovery run itself, so disconnected or
// timed-out clients free their worker slot instead of burning it, and
// identical concurrent queries collapse into one shared run.

// cmcQuery is the standard request the tests below issue.
func cmcQuery() QueryRequest {
	return QueryRequest{QuerySpec: wire.QuerySpec{Params: wire.ParamsJSON{M: 2, K: 5, Eps: 1}, Algo: "cmc"}}
}

// gatedEngine builds an engine whose compute blocks on the returned gate
// channel after signalling `started` — the synchronization the tests use
// to cancel a client at a known point of the run.
func gatedEngine(t *testing.T, cfg Config) (*queryEngine, chan struct{}, chan struct{}) {
	t.Helper()
	e := newQueryEngine(cfg.withDefaults())
	started := make(chan struct{}, 16)
	gate := make(chan struct{})
	e.onComputeStart = func() {
		started <- struct{}{}
		<-gate
	}
	return e, started, gate
}

// awaitRefs waits until the engine's one flight has n waiters attached.
func awaitRefs(e *queryEngine, n int) {
	for {
		e.fmu.Lock()
		var refs int
		for _, f := range e.flights {
			refs = f.refs
		}
		e.fmu.Unlock()
		if refs == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// A client that gives up while *queued* in acquire releases immediately,
// never starts a discovery run, and leaves the worker slot usable.
func TestQueuedCancelReleasesSlotWithoutRunning(t *testing.T) {
	e := newQueryEngine(Config{QueryWorkers: 1}.withDefaults())
	data := fixtureCSV(t)

	// Occupy the engine's only worker slot.
	release, err := e.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.run(ctx, data, cmcQuery())
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the query reach the queue
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued query returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued query did not abort after cancellation")
	}
	if got := e.computes(); got != 0 {
		t.Fatalf("cancelled queued query started %d compute(s)", got)
	}

	// The slot the cancelled client was waiting for is still usable.
	release()
	resp, err := e.run(context.Background(), data, cmcQuery())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "miss" || e.computes() != 1 {
		t.Fatalf("follow-up query: cache=%q computes=%d, want a fresh miss", resp.Cache, e.computes())
	}
}

// A client that disconnects mid-discovery aborts the underlying core run
// (the flight's context is cancelled when its last waiter leaves), frees
// the worker slot, and never populates the cache.
func TestCancelMidRunAbortsFreesSlotAndSkipsCache(t *testing.T) {
	e, started, gate := gatedEngine(t, Config{QueryWorkers: 1})
	data := fixtureCSV(t)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.run(ctx, data, cmcQuery())
		errc <- err
	}()
	<-started // the run holds the only slot now
	cancel()  // client disconnects mid-run
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("disconnected client got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("disconnected client's request did not return")
	}

	// Release the gate: the orphaned run resumes with an already-cancelled
	// context, so the core pipeline aborts instead of finishing, freeing
	// the engine's only slot promptly.
	close(gate)
	slotCtx, slotCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer slotCancel()
	release, err := e.acquire(slotCtx)
	if err != nil {
		t.Fatalf("worker slot never freed after aborted run: %v", err)
	}
	release()

	// The cancelled run must not have cached a (nonexistent) answer.
	e.onComputeStart = nil
	resp, err := e.run(context.Background(), data, cmcQuery())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "miss" {
		t.Fatalf("query after cancelled run: cache=%q, want miss (cancelled runs must not cache)", resp.Cache)
	}
}

// Identical concurrent queries collapse into one discovery run: one
// "miss" does the work, every other waiter shares the answer as "dedup".
func TestDedupStampedeSharesOneRun(t *testing.T) {
	e, started, gate := gatedEngine(t, Config{})
	data := fixtureCSV(t)

	const clients = 8
	responses := make([]QueryResponse, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = e.run(context.Background(), data, cmcQuery())
		}(i)
	}
	<-started // the leader is inside compute; everyone else must join it
	awaitRefs(e, clients)
	close(gate)
	wg.Wait()

	if got := e.computes(); got != 1 {
		t.Fatalf("stampede of %d identical queries ran %d computes, want 1", clients, got)
	}
	miss, dedup := 0, 0
	for i := range responses {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		switch responses[i].Cache {
		case "miss":
			miss++
		case "dedup":
			dedup++
		default:
			t.Fatalf("client %d: cache=%q", i, responses[i].Cache)
		}
		if len(responses[i].Convoys) != len(responses[0].Convoys) {
			t.Fatalf("client %d got a different answer", i)
		}
	}
	if miss != 1 || dedup != clients-1 {
		t.Fatalf("got %d miss / %d dedup, want 1 / %d", miss, dedup, clients-1)
	}
}

// A joiner waited for the shared run, so it reports that run's statistics
// (a later cache hit, which waited for nothing, reports none:
// TestCacheHitCarriesNoStats).
func TestDedupJoinerKeepsRunStats(t *testing.T) {
	e, started, gate := gatedEngine(t, Config{})
	data := fixtureCSV(t)
	q := QueryRequest{QuerySpec: wire.QuerySpec{Params: wire.ParamsJSON{M: 2, K: 5, Eps: 1}, Algo: "cuts"}}

	var responses [2]QueryResponse
	var errs [2]error
	var wg sync.WaitGroup
	for i := range responses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			responses[i], errs[i] = e.run(context.Background(), data, q)
		}()
	}
	<-started
	awaitRefs(e, len(responses))
	close(gate)
	wg.Wait()
	for i, r := range responses {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if r.Stats == nil || !reflect.DeepEqual(r.Stats, responses[0].Stats) {
			t.Fatalf("client %d (%s): stats %+v, want the shared run's %+v", i, r.Cache, r.Stats, responses[0].Stats)
		}
	}
	if responses[0].Cache == responses[1].Cache {
		t.Fatalf("cache states %q and %q, want one miss and one dedup", responses[0].Cache, responses[1].Cache)
	}
}

// A waiter that joined an in-flight run and then cancels gets its own
// context error while the run continues for the remaining waiter.
func TestJoinerCancelLeavesFlightRunning(t *testing.T) {
	e, started, gate := gatedEngine(t, Config{})
	data := fixtureCSV(t)

	leaderErr := make(chan error, 1)
	var leaderResp QueryResponse
	go func() {
		var err error
		leaderResp, err = e.run(context.Background(), data, cmcQuery())
		leaderErr <- err
	}()
	<-started

	jctx, jcancel := context.WithCancel(context.Background())
	joinerErr := make(chan error, 1)
	go func() {
		_, err := e.run(jctx, data, cmcQuery())
		joinerErr <- err
	}()
	awaitRefs(e, 2) // the joiner is attached to the flight
	jcancel()
	if err := <-joinerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("joiner got %v, want its own context.Canceled", err)
	}

	close(gate)
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader failed after joiner left: %v", err)
	}
	if leaderResp.Cache != "miss" || len(leaderResp.Convoys) == 0 {
		t.Fatalf("leader answer: cache=%q convoys=%d", leaderResp.Cache, len(leaderResp.Convoys))
	}
	if got := e.computes(); got != 1 {
		t.Fatalf("ran %d computes, want 1", got)
	}
}

// The HTTP layer end to end: a request whose client disconnects
// mid-discovery aborts the run (no cache entry appears) and the worker
// slot is free for the next query.
func TestHTTPClientDisconnectMidQuery(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueryWorkers: 1})
	started := make(chan struct{}, 16)
	gate := make(chan struct{})
	srv.q.onComputeStart = func() {
		started <- struct{}{}
		<-gate
	}
	data := fixtureCSV(t)
	url := ts.URL + "/v1/query?m=2&k=5&e=1&algo=cmc"

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = errors.New("request unexpectedly succeeded")
		}
		errc <- err
	}()
	<-started
	cancel() // client disconnects while discovery is in progress
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("client error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("disconnected request never returned")
	}
	// The client has given up, but the *server* notices the broken
	// connection asynchronously; only then does the handler leave the
	// flight and cancel the run. Wait for that observation before letting
	// the compute proceed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.q.fmu.Lock()
		refs := -1
		for _, f := range srv.q.flights {
			refs = f.refs
		}
		srv.q.fmu.Unlock()
		if refs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never observed the client disconnect")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	srv.q.onComputeStart = nil

	// The next identical query recomputes (nothing was cached) and can
	// take the — single — worker slot, proving the aborted run freed it.
	resp := postQuery(t, url, data, http.StatusOK)
	if resp.Cache != "miss" {
		t.Fatalf("query after disconnect: cache=%q, want miss", resp.Cache)
	}
	if len(resp.Convoys) != 2 {
		t.Fatalf("query after disconnect: %d convoys, want 2", len(resp.Convoys))
	}
}

// A client-requested timeout_ms aborts a too-slow query with 504.
func TestHTTPQueryTimeoutMS(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	gate := make(chan struct{})
	srv.q.onComputeStart = func() { <-gate }
	defer close(gate)
	data := fixtureCSV(t)

	resp, err := http.Post(ts.URL+"/v1/query?m=2&k=5&e=1&algo=cmc&timeout_ms=25", "text/csv", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
}

// The server-side -request-timeout cap bounds every query, even without a
// client deadline.
func TestHTTPServerQueryTimeoutCap(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueryTimeout: 25 * time.Millisecond})
	gate := make(chan struct{})
	srv.q.onComputeStart = func() { <-gate }
	defer close(gate)
	data := fixtureCSV(t)

	resp, err := http.Post(ts.URL+"/v1/query?m=2&k=5&e=1&algo=cmc", "text/csv", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
}

// Invalid timeout_ms values — negative, non-finite (ParseFloat accepts
// "nan"/"+inf"), or Duration-overflowing — are rejected up front instead
// of silently meaning "no deadline".
func TestQueryTimeoutValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	data := fixtureCSV(t)
	for _, bad := range []string{"-3", "nan", "+inf", "-inf", "1e300"} {
		resp, err := http.Post(ts.URL+"/v1/query?m=2&k=5&e=1&timeout_ms="+bad, "text/csv", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("timeout_ms=%s: status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// A path-referencing query whose file changed behind a still-valid stat
// memo must cache its answer under the *actual* content's digest — never
// under the stale memoized one, which would poison the cache for clients
// querying the old content directly.
func TestPathQueryStaleMemoNeverPoisonsCache(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	contentA := fixtureCSV(t) // two convoys: {a,b} and {c,d}
	// Same byte length, but object b rides far from a: one convoy only.
	contentB := bytes.Replace(contentA, []byte(",0.5\n"), []byte(",5.5\n"), -1)
	if len(contentB) != len(contentA) || bytes.Equal(contentA, contentB) {
		t.Fatal("fixture mutation must change content but not length")
	}
	path := filepath.Join(dir, "db.csv")
	if err := os.WriteFile(path, contentA, 0o644); err != nil {
		t.Fatal(err)
	}

	// Prime the path→digest memo with content A.
	var first QueryResponse
	doJSON(t, "POST", ts.URL+"/v1/query", QueryRequest{
		Path: "db.csv", QuerySpec: wire.QuerySpec{Params: wire.ParamsJSON{M: 2, K: 5, Eps: 1}, Algo: "cmc"},
	}, http.StatusOK, &first)
	if len(first.Convoys) != 2 {
		t.Fatalf("content A yields %d convoys, want 2", len(first.Convoys))
	}

	// Swap in content B while keeping the stat (size + mtime) identical,
	// simulating a file change racing the memo.
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

	// New params → memo hit (stale digest) but cache miss → the engine
	// reads B and must report/cache B's digest, not the memoized one.
	var second QueryResponse
	doJSON(t, "POST", ts.URL+"/v1/query", QueryRequest{
		Path: "db.csv", QuerySpec: wire.QuerySpec{Params: wire.ParamsJSON{M: 2, K: 4, Eps: 1}, Algo: "cmc"},
	}, http.StatusOK, &second)
	if second.Digest == first.Digest {
		t.Fatalf("changed file served under the stale digest %s", first.Digest)
	}
	if len(second.Convoys) != 1 {
		t.Fatalf("content B yields %d convoys, want 1", len(second.Convoys))
	}

	// Uploading content A at the same params must be a fresh miss with
	// A's answer — a poisoned cache would return B's single convoy here.
	resp := postQuery(t, ts.URL+"/v1/query?m=2&k=4&e=1&algo=cmc", contentA, http.StatusOK)
	if resp.Cache != "miss" {
		t.Fatalf("upload of old content: cache=%q, want miss (stale-memo poisoning)", resp.Cache)
	}
	if len(resp.Convoys) != 2 {
		t.Fatalf("upload of old content answered %d convoys, want 2", len(resp.Convoys))
	}
}
