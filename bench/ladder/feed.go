package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
)

// feed-commute: one producer posting single-tick batches into a durable
// feed with four standing queries. Phase A is a closed loop (capacity, WAL
// bytes, then a restart for recovery); phase B an open loop at a fixed
// rate on a fresh feed (latency from each tick's due time).

const (
	feedName = "commute"
	// feedRate is phase B's schedule. At ≈ 0.4 ms of service per tick the
	// server is ≈ 15 % utilised, so the median tracks service time and the
	// tail tracks stalls.
	feedRate = 300.0
	// feedWarmup ticks open each phase untimed: the first pass of every
	// clustering key is a full rebuild and the label table fills.
	feedWarmup = 200
)

// monitorDef is one standing query on the feed.
type monitorDef struct {
	ID string
	P  core.Params
}

// feedMonitors: the default monitor plus three more — two on the default's
// clustering key (e, m) with other lifetimes, one on its own key — so a
// tick costs two clustering passes and four chains.
var feedMonitors = []monitorDef{
	{serve.DefaultMonitorID, core.Params{M: 3, K: 480, Eps: 10}},
	{"short", core.Params{M: 3, K: 240, Eps: 10}},
	{"long", core.Params{M: 3, K: 960, Eps: 10}},
	{"wide", core.Params{M: 3, K: 480, Eps: 15}},
}

// feedSizes derives the fixed tick counts of both phases from the run
// length: op counts, not durations, are fixed, so for one seed and run
// length every counter repeats exactly.
func feedSizes(seconds int, trace bool) (ticksA, ticksB int) {
	ticksA, ticksB = 330*seconds, int(feedRate*0.6*float64(seconds))
	if trace {
		ticksA, ticksB = ticksA/2, ticksB/2 // the traced pass also re-enacts and probes
	}
	return ticksA, ticksB
}

type feedFixture struct {
	db     *model.DB
	slice  *model.DB // db restricted to phase A's ticks: what batch CMC mines
	stream *tickStream
	refs   map[string][]string // monitor ID → canonical reference over slice
	ticksA int
	ticksB int
	host   *hosted
	cfg    serve.Config
}

// startFeedServer hosts a fresh durable server with the feed and its
// monitors registered.
func startFeedServer(rc *runCtx) (*hosted, serve.Config, error) {
	dir, err := rc.subdir("wal")
	if err != nil {
		return nil, serve.Config{}, err
	}
	// FsyncNever: the sandbox's disk is not what this ladder measures.
	cfg := serve.Config{WALDir: dir, WALFsync: wal.FsyncNever}
	h, err := host(serve.New(cfg))
	if err != nil {
		return nil, cfg, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	spec := mustJSON(serve.FeedSpec{Name: feedName, Params: wire.ParamsToJSON(feedMonitors[0].P)})
	if err := call(c, http.MethodPost, h.Base+"/v1/feeds", spec, nil); err != nil {
		return nil, cfg, errors.Join(err, h.stop())
	}
	for _, m := range feedMonitors[1:] {
		spec := mustJSON(serve.MonitorSpec{ID: m.ID, Params: wire.ParamsToJSON(m.P)})
		if err := call(c, http.MethodPost, h.Base+"/v1/feeds/"+feedName+"/monitors", spec, nil); err != nil {
			return nil, cfg, errors.Join(err, h.stop())
		}
	}
	return h, cfg, nil
}

func setupFeed(rc *runCtx) (*feedFixture, error) {
	fx := &feedFixture{db: generate(datagen.Commute, 4, rc.seed, 0), refs: map[string][]string{}}
	fx.ticksA, fx.ticksB = feedSizes(rc.seconds, rc.trace)
	from, to := stableRange(fx.db)
	n := max(fx.ticksA, fx.ticksB)
	if int(to-from)+1 < n {
		return nil, fmt.Errorf("commute database has %d stable ticks, need %d", to-from+1, n)
	}
	fx.stream = encodeTicks(fx.db, from, from+model.Tick(n)-1)
	fx.slice, _ = core.SliceTime(fx.db, from, from+model.Tick(fx.ticksA)-1)
	// One reference run per clustering key, at the key's shortest
	// lifetime: a convoy's maximality does not depend on k, so the answer
	// for a longer k is the same run's convoys that last at least that long.
	shortest := map[core.ClusterKey][]wire.ConvoyJSON{}
	for _, m := range feedMonitors {
		key := m.P.ClusterKey()
		if _, ok := shortest[key]; ok {
			continue
		}
		p := m.P
		for _, o := range feedMonitors {
			if o.P.ClusterKey() == key && o.P.K < p.K {
				p.K = o.P.K
			}
		}
		ref, err := reference(fx.slice, p)
		if err != nil {
			return nil, err
		}
		shortest[key] = ref
	}
	for _, m := range feedMonitors {
		var ref []wire.ConvoyJSON
		for _, c := range shortest[m.P.ClusterKey()] {
			if c.Lifetime >= m.P.K {
				ref = append(ref, c)
			}
		}
		fx.refs[m.ID] = canon(ref)
	}
	var err error
	fx.host, fx.cfg, err = startFeedServer(rc)
	return fx, err
}

func (fx *feedFixture) close() error { return fx.host.stop() }

// postTick sends stream tick i and checks it was applied.
func (fx *feedFixture) postTick(c *http.Client, base string, i int) error {
	var tr serve.TicksResponse
	if err := call(c, http.MethodPost, base+"/v1/feeds/"+feedName+"/ticks", fx.stream.body(i), &tr); err != nil {
		return err
	}
	if tr.Accepted != 1 {
		return fmt.Errorf("tick %d: accepted %d", i, tr.Accepted)
	}
	return nil
}

func runFeed(rc *runCtx) error {
	fx, err := setUp(rc, setupFeed)
	if err != nil {
		return err
	}
	// The digest covers a fixed prefix so the traced pass (half the ticks)
	// checks the same pin.
	if err := checkPin(rc.rec, digestHex(fx.stream.arena[:fx.stream.off[min(fx.stream.len(), 1000)]])); err != nil {
		return errors.Join(err, fx.close())
	}

	// Phase A: closed loop, one connection, every tick of the stream.
	client := newClient()
	defer client.CloseIdleConnections()
	// post returns an op that sends stream tick first+i to the server at base.
	post := func(base string, first int) func(i int) bool {
		return func(i int) bool {
			rc.rec.Attempted++
			if err := fx.postTick(client, base, first+i); err != nil {
				rc.rec.fail(err)
				return false
			}
			return true
		}
	}
	closedLoop(wallClock{}, 0, feedWarmup, feedWarmup, post(fx.host.Base, 0))
	timedA := fx.ticksA - feedWarmup
	latA := rc.timedLoop(0, timedA, timedA, post(fx.host.Base, feedWarmup),
		func(i int) int64 { return int64(fx.stream.Positions[feedWarmup+i]) })
	rc.rec.Counts["ticks_closed_loop"] = float64(len(latA))
	rc.rec.Counts["point_ticks_closed_loop"] = float64(fx.stream.positions(feedWarmup, fx.ticksA))
	rc.rec.Timings["closed_loop_tick"] = summarise(latA)

	// WAL size, then restart on the same directory.
	var ws serve.WALStatusJSON
	if err := call(client, http.MethodGet, fx.host.Base+"/v1/feeds/"+feedName+"/wal", nil, &ws); err != nil {
		return errors.Join(err, fx.close())
	}
	walBytesPerPointTick := float64(ws.Bytes) / float64(fx.stream.positions(0, fx.ticksA))
	rc.rec.Counts["wal_bytes"] = float64(ws.Bytes)
	rc.rec.Counts["wal_segments"] = float64(ws.Segments)
	recovery, err := fx.restartAndCheck(rc, client)
	if err != nil {
		return err
	}

	// Phase B: open loop at a fixed rate on a fresh feed.
	hB, _, err := startFeedServer(rc)
	if err != nil {
		return err
	}
	closedLoop(wallClock{}, 0, feedWarmup, feedWarmup, post(hB.Base, 0))
	latB, lagB, _ := openLoop(wallClock{}, feedRate, fx.ticksB-feedWarmup, nil, post(hB.Base, feedWarmup))
	if err := hB.stop(); err != nil {
		return err
	}
	lagP99 := percentile(sorted(durationsMS(lagB)), 99)
	if interval := 1000 / feedRate; lagP99 > interval {
		// The generator fell a whole tick behind: latencies from due times
		// then measure the generator's backlog, not the server.
		rc.rec.Invalid = append(rc.rec.Invalid, fmt.Sprintf("open-loop generator fell behind: send lag p99 %.2f ms exceeds the %.2f ms tick interval", lagP99, interval))
	}
	rc.rec.Counts["ticks_open_loop"] = float64(len(latB))

	// One producer's capacity in ticks: the median slice's point-tick rate
	// over the mean tick size.
	ticksPerS := rc.values["point_ticks_per_s"] * float64(len(latA)) / float64(fx.stream.positions(feedWarmup, fx.ticksA))
	if rc.trace {
		ascB := sorted(durationsMS(latB))
		rc.values["serve.ingest_ticks_per_s"] = ticksPerS
		rc.values["serve.ingest_p50_ms"] = percentile(ascB, 50)
		rc.values["serve.ingest_p99_ms"] = percentile(ascB, 99)
		rc.values["serve.recovery_ms"] = ms(recovery)
		rc.values["wal.bytes_per_point_tick"] = walBytesPerPointTick
		rc.values["wal.bytes_per_tick"] = float64(ws.Bytes) / float64(fx.ticksA)
		rc.values["wal.segments"] = float64(ws.Segments)
		rc.values["gen.sched_lag_p99_ms"] = lagP99
		rc.rec.Timings["open_loop_tick"] = summarise(latB)
		return traceFeed(rc, fx, time.Duration(float64(time.Second)/ticksPerS))
	}
	rc.latencyMetrics(latB)
	rc.rec.Counts["recovery_ms"] = ms(recovery)
	rc.rec.Counts["ingest_ticks_per_s"] = ticksPerS
	rc.rec.Counts["wal_bytes_per_point_tick"] = walBytesPerPointTick
	return nil
}

// restartAndCheck closes phase A's server, reopens its directory and
// times the recovery until the feed answers; the recovered status must
// equal the one before the restart. It then closes every monitor and holds
// the feed's whole output — recovered events plus drained convoys — to
// batch CMC over the same ticks. Each comparison is one attempted op.
func (fx *feedFixture) restartAndCheck(rc *runCtx, c *http.Client) (time.Duration, error) {
	statusURL := "/v1/feeds/" + feedName
	var pre serve.FeedStatus
	if err := call(c, http.MethodGet, fx.host.Base+statusURL, nil, &pre); err != nil {
		return 0, errors.Join(err, fx.close())
	}
	if err := fx.host.stop(); err != nil {
		return 0, err
	}
	c.CloseIdleConnections()
	t0 := time.Now()
	h, err := host(serve.New(fx.cfg))
	if err != nil {
		return 0, err
	}
	defer h.stop()
	var post serve.FeedStatus
	if err := call(c, http.MethodGet, h.Base+statusURL, nil, &post); err != nil {
		return 0, err
	}
	recovery := time.Since(t0)
	rc.rec.Attempted++
	if !reflect.DeepEqual(pre, post) {
		rc.rec.fail(fmt.Errorf("recovered feed status differs from the one before the restart:\n pre  %+v\n post %+v", pre, post))
	}
	for i := len(feedMonitors) - 1; i >= 0; i-- {
		m := feedMonitors[i]
		var ev serve.EventsResponse
		if err := call(c, http.MethodGet, h.Base+statusURL+"/convoys?monitor="+url.QueryEscape(m.ID), nil, &ev); err != nil {
			return 0, err
		}
		var drained []wire.ConvoyJSON
		if m.ID == serve.DefaultMonitorID {
			var r serve.FeedCloseResponse
			if err := call(c, http.MethodDelete, h.Base+statusURL, nil, &r); err != nil {
				return 0, err
			}
			drained = r.Drained
		} else {
			var r serve.MonitorCloseResponse
			if err := call(c, http.MethodDelete, h.Base+statusURL+"/monitors/"+url.PathEscape(m.ID), nil, &r); err != nil {
				return 0, err
			}
			drained = r.Drained
		}
		for _, e := range ev.Events {
			drained = append(drained, e.Convoy)
		}
		got, err := canonEvents(fx.slice, drained)
		rc.rec.Attempted++
		if err != nil {
			rc.rec.fail(err)
		} else if !slices.Equal(got, fx.refs[m.ID]) {
			rc.rec.fail(fmt.Errorf("monitor %q: feed emitted %d convoys, batch CMC over the same ticks finds %d", m.ID, len(got), len(fx.refs[m.ID])))
		}
	}
	return recovery, nil
}
