package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The four query workloads share one shape: a closed loop of cold queries
// on one connection, every answer checked against a reference mined by an
// independent route. They differ in what set-up builds.

// queryFixture is a set-up query workload: the servers, the requests to
// cycle through and the answer each must give.
type queryFixture struct {
	url    string     // POST target
	bodies [][]byte   // request i sends bodies[i%len(bodies)]
	want   [][]string // canonical reference answer per body
	// exact, when set, also requires each body's answer to marshal to
	// exactly these bytes — order and all. truck-cmc and sharded-truck are
	// both held to the same bytes, hence to each other.
	exact   [][]byte
	points  []int64   // input point-ticks per body
	servers []*hosted // stopped last to first
	digest  string    // SHA-256 of the generated input

	// What the traced pass re-enacts.
	params core.Params
	algo   string
	dbs    []*model.DB // the mined databases, one per body (history-commute: the one Commute database)
	files  []string    // their CTBs on disk (batch workloads)
	shards []string    // shard base URLs (sharded-truck)
	// history-commute: the stream posted, how much of it set-up ingested,
	// the query windows and the live writer.
	stream  *tickStream
	ingests int // ticks ingested during set-up
	windows []core.Window
	writer  *bgWriter
}

func (fx *queryFixture) close() error {
	var err error
	if fx.writer != nil {
		fx.writer.stop()
	}
	for i := len(fx.servers) - 1; i >= 0; i-- {
		err = errors.Join(err, fx.servers[i].stop())
	}
	return err
}

// answer is the part of QueryResponse and HistoryQueryResponse the ladder
// reads.
type answer struct {
	Convoys []wire.ConvoyJSON `json:"convoys"`
	Cache   string            `json:"cache"`
}

// query issues request i and checks the answer.
func (fx *queryFixture) query(c *http.Client, i int) error {
	j := i % len(fx.bodies)
	var a answer
	if err := call(c, http.MethodPost, fx.url, fx.bodies[j], &a); err != nil {
		return err
	}
	if a.Cache == "hit" || a.Cache == "dedup" {
		return fmt.Errorf("query %d was answered from the cache (%s): not a cold query", i, a.Cache)
	}
	if got := canon(a.Convoys); !slices.Equal(got, fx.want[j]) {
		return fmt.Errorf("query %d: %d convoys differ from the reference's %d", i, len(got), len(fx.want[j]))
	}
	if fx.exact != nil && !bytes.Equal(mustJSON(a.Convoys), fx.exact[j]) {
		return fmt.Errorf("query %d: same convoy set as the reference but not byte-identical", i)
	}
	return nil
}

// runQueries is the whole life of a query workload's run.
func runQueries(rc *runCtx, setup func(*runCtx) (*queryFixture, error)) error {
	fx, err := setUp(rc, setup)
	if err != nil {
		return err
	}
	defer fx.close()
	if err := checkPin(rc.rec, fx.digest); err != nil {
		return err
	}
	if rc.trace {
		return traceQueries(rc, fx)
	}

	client := newClient()
	defer client.CloseIdleConnections()
	for i := 0; i < warmupOps; i++ {
		if err := fx.query(client, i); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	if fx.writer != nil {
		fx.writer.start()
	}
	lat := rc.timedLoop(rc.budget(), 20, 0, func(i int) bool {
		rc.rec.Attempted++
		if err := fx.query(client, warmupOps+i); err != nil {
			rc.rec.fail(err)
			return false
		}
		return true
	}, func(i int) int64 { return fx.points[(warmupOps+i)%len(fx.points)] })
	if fx.writer != nil {
		fx.writer.stop()
		fx.writer.report(rc)
	}
	rc.latencyMetrics(lat)
	rc.rec.Counts["ops"] = float64(len(lat))
	rc.rec.Counts["point_ticks_per_op"] = float64(fx.points[0])
	return nil
}

// batchFixture writes each database as a CTB under a fresh data directory,
// mines its reference and returns the fixture — one request per database —
// still lacking its servers.
func batchFixture(rc *runCtx, dbs []*model.DB, p core.Params, algo string, exact bool) (*queryFixture, string, error) {
	dir, err := rc.subdir("data")
	if err != nil {
		return nil, "", err
	}
	fx := &queryFixture{params: p, algo: algo, dbs: dbs}
	var all []byte
	for i, db := range dbs {
		ctb, err := ctbBytes(db)
		if err != nil {
			return nil, "", err
		}
		name := fmt.Sprintf("db%d.ctb", i)
		if err := os.WriteFile(filepath.Join(dir, name), ctb, 0o644); err != nil {
			return nil, "", err
		}
		ref, err := reference(db, p)
		if err != nil {
			return nil, "", err
		}
		all = append(all, ctb...)
		fx.files = append(fx.files, filepath.Join(dir, name))
		fx.bodies = append(fx.bodies, mustJSON(serve.QueryRequest{
			QuerySpec: wire.QuerySpec{Params: wire.ParamsToJSON(p), Algo: algo},
			Path:      name,
		}))
		fx.want = append(fx.want, canon(ref))
		fx.points = append(fx.points, int64(db.SumTrajLen()))
		if exact {
			fx.exact = append(fx.exact, mustJSON(ref))
		}
	}
	fx.digest = digestHex(all)
	return fx, dir, nil
}

// serveQueries hosts a server on cfg and points the fixture at its batch
// query route.
func (fx *queryFixture) serveQueries(cfg serve.Config) error {
	h, err := host(serve.New(cfg))
	if err != nil {
		return err
	}
	fx.servers = append(fx.servers, h)
	fx.url = h.Base + "/v1/query"
	return nil
}

var truckParams = core.Params{M: 3, K: 180, Eps: 8}

func truckDBs(seed int64) []*model.DB {
	return []*model.DB{generate(datagen.Truck, 1, seed, 0)}
}

func setupTruck(rc *runCtx) (*queryFixture, error) {
	fx, dir, err := batchFixture(rc, truckDBs(rc.seed), truckParams, wire.AlgoCMC, true)
	if err != nil {
		return nil, err
	}
	// The result cache is off: every query is a cold one, which is what a
	// user with a new database or new parameters waits for.
	return fx, fx.serveQueries(serve.Config{DataDir: dir, CacheEntries: -1})
}

func setupCattle(rc *runCtx) (*queryFixture, error) {
	// k=27 is the paper's k=180 at this scale; δ and λ are left to the
	// automatic guidelines, as a user without tuning knowledge runs it.
	p := core.Params{M: 2, K: 27, Eps: 300}
	// How many convoys a herd of 13 forms by chance swings the refinement
	// work by ±15 % from seed to seed, so one run queries four herds in
	// turn: a run's numbers are then about the workload, not about which
	// herd its seed happened to draw.
	var dbs []*model.DB
	for i := int64(0); i < 4; i++ {
		dbs = append(dbs, generate(datagen.Cattle, 0.15, rc.seed+1000*i, 100))
	}
	fx, dir, err := batchFixture(rc, dbs, p, wire.AlgoCuTSStar, false)
	if err != nil {
		return nil, err
	}
	return fx, fx.serveQueries(serve.Config{DataDir: dir, CacheEntries: -1})
}

func setupSharded(rc *runCtx) (*queryFixture, error) {
	fx, dir, err := batchFixture(rc, truckDBs(rc.seed), truckParams, wire.AlgoCMC, true)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		// Shards keep their caches off too, or the second query would
		// measure two LRU lookups.
		h, err := host(serve.New(serve.Config{ShardMode: true, CacheEntries: -1}))
		if err != nil {
			return nil, errors.Join(err, fx.close())
		}
		fx.servers = append(fx.servers, h)
		fx.shards = append(fx.shards, h.Base)
	}
	return fx, fx.serveQueries(serve.Config{DataDir: dir, CacheEntries: -1, Shards: fx.shards})
}

// History workload shape: ticks ingested during set-up, the window every
// query covers, how many window offsets the queries cycle through, and
// the live writer's rate.
const (
	historyTicks   = 3000
	historyWindow  = 1000
	historyOffsets = 5
	historyRate    = 50.0 // ticks/s appended while queries run
)

var historyParams = core.Params{M: 3, K: 300, Eps: 10}

func setupHistory(rc *runCtx) (*queryFixture, error) {
	db := generate(datagen.Commute, 2.5, rc.seed, 0)
	from, to := stableRange(db)
	live := int(historyRate*float64(rc.seconds)) + 200 // what the writer may append, with slack
	if int(to-from)+1 < historyTicks+live {
		return nil, fmt.Errorf("commute database has %d stable ticks, need %d", to-from+1, historyTicks+live)
	}
	stream := encodeTicks(db, from, from+model.Tick(historyTicks+live)-1)
	walDir, err := rc.subdir("wal")
	if err != nil {
		return nil, err
	}
	fx := &queryFixture{
		digest: digestHex(stream.arena), params: historyParams, algo: wire.AlgoCMC,
		dbs: []*model.DB{db}, stream: stream, ingests: historyTicks,
	}
	// FsyncNever: the sandbox's disk is not what this ladder measures.
	h, err := host(serve.New(serve.Config{WALDir: walDir, WALFsync: wal.FsyncNever}))
	if err != nil {
		return nil, err
	}
	fx.servers = append(fx.servers, h)
	fx.url = h.Base + "/v1/feeds/hist/query"
	client := newClient()
	defer client.CloseIdleConnections()
	spec := mustJSON(serve.FeedSpec{Name: "hist", Params: wire.ParamsToJSON(historyParams)})
	if err := call(client, http.MethodPost, h.Base+"/v1/feeds", spec, nil); err != nil {
		return nil, errors.Join(err, fx.close())
	}
	const batch = 100 // ticks per set-up request
	for lo := 0; lo < historyTicks; lo += batch {
		var tr serve.TicksResponse
		if err := call(client, http.MethodPost, h.Base+"/v1/feeds/hist/ticks", stream.batch(lo, lo+batch), &tr); err != nil {
			return nil, errors.Join(err, fx.close())
		}
		if tr.Accepted != batch {
			return nil, errors.Join(fmt.Errorf("set-up batch at %d: accepted %d of %d ticks", lo, tr.Accepted, batch), fx.close())
		}
	}
	// One reference per window offset, over the same tick slice the
	// server will read back from its log.
	stride := (historyTicks - historyWindow) / (historyOffsets - 1)
	for i := 0; i < historyOffsets; i++ {
		lo := from + model.Tick(i*stride)
		hi := lo + historyWindow - 1
		sub, _ := core.SliceTime(db, lo, hi)
		ref, err := reference(sub, historyParams)
		if err != nil {
			return nil, errors.Join(err, fx.close())
		}
		fx.windows = append(fx.windows, core.Window{Lo: lo, Hi: hi})
		fx.bodies = append(fx.bodies, mustJSON(wire.QuerySpec{
			Params: wire.ParamsToJSON(historyParams), Algo: wire.AlgoCMC, From: &lo, To: &hi,
		}))
		fx.want = append(fx.want, canon(ref))
		fx.points = append(fx.points, stream.positions(i*stride, i*stride+historyWindow))
	}
	fx.writer = &bgWriter{url: h.Base + "/v1/feeds/hist/ticks", stream: stream, first: historyTicks, rate: historyRate}
	return fx, nil
}

// bgWriter is history-commute's second connection: it keeps appending the
// stream's remaining ticks at a fixed rate while queries read the log.
type bgWriter struct {
	url    string
	stream *tickStream
	first  int // stream index of the first tick it appends
	rate   float64
	quit   chan struct{}
	done   chan struct{}
	lat    []time.Duration
	lag    []time.Duration
	failed int
}

func (w *bgWriter) start() {
	w.quit, w.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(w.done)
		client := newClient()
		defer client.CloseIdleConnections()
		w.lat, w.lag, w.failed = openLoop(wallClock{}, w.rate, w.stream.len()-w.first, w.quit, func(i int) bool {
			var tr serve.TicksResponse
			err := call(client, http.MethodPost, w.url, w.stream.body(w.first+i), &tr)
			return err == nil && tr.Accepted == 1
		})
	}()
}

// stop ends the schedule and waits for the writer goroutine.
func (w *bgWriter) stop() {
	if w.quit == nil {
		return
	}
	close(w.quit)
	<-w.done
	w.quit = nil
}

// report records the writer's latency and marks the run invalid when the
// writer fell behind its schedule or ran out of ticks.
func (w *bgWriter) report(rc *runCtx) {
	rc.rec.Timings["bg_ingest"] = summarise(w.lat)
	rc.rec.Counts["bg_ticks"] = float64(len(w.lat))
	rc.rec.Attempted += len(w.lat)
	rc.rec.Failed += w.failed
	// A send waits for the previous reply, and a reply can wait for a
	// window read holding the feed's mailbox, so single sends do slip; the
	// writer has fallen behind its schedule when the typical send is late
	// by a whole interval, i.e. a backlog is standing.
	interval := ms(time.Duration(float64(time.Second) / w.rate))
	lag := sorted(durationsMS(w.lag))
	lagP99 := percentile(lag, 99)
	if lagP50 := percentile(lag, 50); lagP50 > interval {
		rc.rec.Invalid = append(rc.rec.Invalid, fmt.Sprintf("background writer fell behind its schedule: median send lag %.2f ms exceeds its %.0f ms interval", lagP50, interval))
	}
	if len(w.lat) == w.stream.len()-w.first {
		rc.rec.Invalid = append(rc.rec.Invalid, "background writer ran out of ticks before the queries finished")
	}
	if rc.trace {
		rc.values["serve.ingest_p50_ms"] = percentile(sorted(durationsMS(w.lat)), 50)
		rc.values["gen.sched_lag_p99_ms"] = lagP99
	}
}
