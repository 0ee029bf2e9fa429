package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dbscan"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/increment"
	"repro/internal/model"
	"repro/internal/simplify"
	"repro/internal/tsio"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The traced pass. Nothing inside the program is instrumented, so the
// ladder re-enacts each workload's operation layer by layer — the same
// public calls, in the order the server makes them, on the same bytes —
// with a span around every call, and holds the sum against the real
// end-to-end median (trace.coverage). What the re-enactment cannot see —
// HTTP, routing, the worker pool and mailbox, response encoding — is the
// residual reported as serve.query_self_ms / serve.tick_self_us.

// meanOf times fn n times and returns the mean duration of one call.
func meanOf(n int, fn func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(t0) / time.Duration(n)
}

// medianOf times fn n times and returns the median duration.
func medianOf(n int, fn func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// reenactCMC runs the CMC scan as the core does — snapshot, incremental
// clustering, chaining, tick by tick — with a span per call, and returns
// the clustering engine for its counters.
func reenactCMC(r *recorder, op, parent int, db *model.DB, p core.Params) (*increment.Engine, error) {
	eng := increment.New(p.Eps, p.M, increment.DefaultChurnThreshold)
	mon, err := core.NewMonitor(p)
	if err != nil {
		return nil, err
	}
	lo, hi, ok := db.TimeRange()
	if !ok {
		return eng, nil
	}
	for t := lo; t <= hi; t++ {
		s := r.start(lModelSnapshotAt, op, parent)
		ids, pts := db.SnapshotAt(t)
		r.end(s)
		s = r.start(lIncrementTick, op, parent)
		clusters, _ := eng.Tick(ids, pts)
		r.end(s)
		s = r.start(lCoreChain, op, parent)
		_, err := mon.AdvanceClusters(t, clusters)
		r.end(s)
		if err != nil {
			return nil, err
		}
	}
	s := r.start(lCoreChain, op, parent)
	mon.Close()
	r.end(s)
	return eng, nil
}

// cutsRun is what one re-enacted CuTS* run found.
type cutsRun struct {
	cands       []core.Candidate
	convoys     int
	kept, total int
}

// reenactCuTS runs CuTS* phase by phase as core.Query does with automatic
// δ and λ: guideline, simplify (DP*, serial), guideline, filter, refine.
func reenactCuTS(r *recorder, op, parent int, db *model.DB, p core.Params) (cutsRun, error) {
	v := core.VariantCuTSStar
	s := r.start(lCoreCutsParams, op, parent)
	delta := core.ComputeDelta(db, p.Eps)
	r.end(s)
	s = r.start(lSimplifyAll, op, parent)
	sts, err := simplify.SimplifyAllWorkers(context.Background(), db, delta, v.SimplifyMethod(), 1)
	r.end(s)
	if err != nil {
		return cutsRun{}, err
	}
	s = r.start(lCoreCutsParams, op, parent)
	lambda := core.ComputeLambda(db, sts, p.K)
	r.end(s)
	s = r.start(lCoreCutsFilter, op, parent)
	cands := core.Filter(db, p, sts, core.FilterConfig{Lambda: lambda, Bound: v.Bound(), Delta: delta})
	r.end(s)
	s = r.start(lCoreCutsRefine, op, parent)
	res := core.Refine(db, p, cands)
	r.end(s)
	run := cutsRun{cands: cands, convoys: len(res)}
	for _, st := range sts {
		run.kept += st.Len()
		run.total += st.Orig.Len()
	}
	return run, nil
}

// probeClustering times the spatial layers on an op's tick snapshots:
// grid.PointIndex.Reset per snapshot and Within per point (on every
// stride-th snapshot), and a from-scratch dbscan.Cluster summed over all
// of them.
func probeClustering(rc *runCtx, snaps [][]geom.Point, eps float64, m int) {
	if len(snaps) == 0 {
		return
	}
	const stride = 4
	idx := grid.NewPointIndex(snaps[0], eps)
	var build, within time.Duration
	var builds, queries int
	var buf []int
	for i := 0; i < len(snaps); i += stride {
		pts := snaps[i]
		t0 := time.Now()
		idx.Reset(pts)
		t1 := time.Now()
		for _, p := range pts {
			buf = idx.Within(p, eps, buf[:0])
		}
		build += t1.Sub(t0)
		within += time.Since(t1)
		builds++
		queries += len(pts)
	}
	rc.values["grid.build_us"] = us(build) / float64(builds)
	if queries > 0 {
		rc.values["grid.within_ns"] = float64(within) / float64(queries)
	}
	t0 := time.Now()
	for _, pts := range snaps {
		dbscan.Cluster(pts, eps, m)
	}
	rc.values["dbscan.cluster_ms"] = ms(time.Since(t0))
}

// probeHTTPFloor is the cost of the cheapest round trip on the op's route
// family — what every request pays before any layer does work. Query
// workloads use GET /v1/healthz; feed-commute posts an empty tick list,
// which also crosses the feed's mailbox.
func probeHTTPFloor(rc *runCtx, c *http.Client, method, url string, body []byte) (time.Duration, error) {
	var err error
	round := func() {
		if e := call(c, method, url, body, nil); e != nil {
			err = e
		}
	}
	for i := 0; i < 50; i++ {
		round()
	}
	floor := medianOf(300, round)
	rc.values["serve.http_floor_us"] = us(floor)
	return floor, err
}

// streamBlocks decodes a tick stream's bodies into the tick blocks the
// server logs for them.
func streamBlocks(s *tickStream, lo, hi int) ([]tsio.TickBlock, error) {
	out := make([]tsio.TickBlock, 0, hi-lo)
	for i := lo; i < hi; i++ {
		var req wire.TicksRequest
		if err := json.Unmarshal(s.body(i), &req); err != nil {
			return nil, err
		}
		out = append(out, toBlock(req.Ticks[0]))
	}
	return out, nil
}

func toBlock(b wire.TickBatch) tsio.TickBlock {
	blk := tsio.TickBlock{T: b.T, Positions: make([]tsio.TickPosition, len(b.Positions))}
	for i, p := range b.Positions {
		blk.Positions[i] = tsio.TickPosition{Label: p.ID, X: p.X, Y: p.Y}
	}
	return blk
}

// probeTickBlock times the WAL record codec on one tick.
func probeTickBlock(rc *runCtx, blk tsio.TickBlock) error {
	var enc []byte
	rc.values["tsio.tickblock_encode_us"] = us(meanOf(500, func() { enc = tsio.AppendTickBlock(enc[:0], blk) }))
	rc.values["tsio.tickblock_bytes"] = float64(len(enc))
	var err error
	rc.values["tsio.tickblock_decode_us"] = us(meanOf(500, func() {
		if _, e := tsio.DecodeTickBlock(enc); e != nil {
			err = e
		}
	}))
	return err
}

// probeWAL writes blocks to a log of the benchmark's own (FsyncNever, as
// the servers run) and records the cost of a windowed read and of a
// whole-log replay; a second short log under FsyncAlways shows what this
// sandbox's disk would add per tick. It returns the first log, open, and
// its mean append time.
func probeWAL(rc *runCtx, blocks []tsio.TickBlock, window int) (*wal.Log, time.Duration, error) {
	dir, err := rc.subdir("probe-wal")
	if err != nil {
		return nil, 0, err
	}
	log, err := wal.Create(dir+"/log", nil, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		return nil, 0, err
	}
	rc.cleanup = append(rc.cleanup, log.Close)
	t0 := time.Now()
	for _, b := range blocks {
		if err := log.Append(b); err != nil {
			return nil, 0, err
		}
	}
	appendMean := time.Since(t0) / time.Duration(len(blocks))
	window = min(window, len(blocks))
	from, to := blocks[0].T, blocks[window-1].T
	rc.values["wal.read_range_ms"] = ms(medianOf(5, func() {
		if e := log.ReadRange(from, to, true, func(tsio.TickBlock) error { return nil }); e != nil {
			err = e
		}
	}))
	rc.values["wal.replay_ms"] = ms(medianOf(3, func() {
		if e := log.Replay(func(tsio.TickBlock) error { return nil }); e != nil {
			err = e
		}
	}))
	if err != nil {
		return nil, 0, err
	}
	synced, err := wal.Create(dir+"/synced", nil, wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		return nil, 0, err
	}
	defer synced.Close()
	n := min(30, len(blocks))
	t0 = time.Now()
	for _, b := range blocks[:n] {
		if err := synced.Append(b); err != nil {
			return nil, 0, err
		}
	}
	rc.values["wal.append_fsync_us"] = us(time.Since(t0)) / float64(n)
	return log, appendMean, nil
}

// buildWindowDB assembles a trajectory database from logged tick blocks,
// as the server's historical query does before it can mine a window.
func buildWindowDB(blocks []tsio.TickBlock) (*model.DB, error) {
	ids := map[string]int{}
	var samples [][]model.Sample
	var labels []string
	for _, b := range blocks {
		for _, pos := range b.Positions {
			id, ok := ids[pos.Label]
			if !ok {
				id = len(labels)
				ids[pos.Label] = id
				labels = append(labels, pos.Label)
				samples = append(samples, nil)
			}
			samples[id] = append(samples[id], model.Sample{T: b.T, P: geom.Pt(pos.X, pos.Y)})
		}
	}
	db := model.NewDB()
	for i, label := range labels {
		tr, err := model.NewTrajectory(label, samples[i])
		if err != nil {
			return nil, err
		}
		db.Add(tr)
	}
	return db, nil
}

// reenactment re-runs one op of a query workload layer by layer.
type reenactment func(r *recorder, op int) error

// traceQueries is the traced pass of a query workload. Each round issues
// one real query, one untraced re-enactment and one traced re-enactment
// back to back, so the three medians it compares were taken under the
// same machine conditions; the layer probes follow.
func traceQueries(rc *runCtx, fx *queryFixture) error {
	client := newClient()
	defer client.CloseIdleConnections()
	for i := 0; i < warmupOps; i++ {
		if err := fx.query(client, i); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	var re reenactment
	var err error
	switch {
	case fx.stream != nil:
		re, err = historyReenactment(rc, fx)
	case len(fx.shards) > 0:
		re = shardedReenactment(rc, fx)
	default:
		re = batchReenactment(rc, fx)
	}
	if err != nil {
		return err
	}
	shards := fx.servers[:len(fx.shards)] // set-up hosts the shards first
	shardBytes := func() (n int64) {
		for _, h := range shards {
			n += h.BytesIn.Load()
		}
		return n
	}
	if fx.writer != nil {
		fx.writer.start()
	}
	rec := newRecorder()
	rc.spans = rec
	var real []time.Duration
	var plain, traced []float64
	var transferred int64
	start := time.Now()
	for op := 0; op < 5 || time.Since(start) < rc.budget()*6/10; op++ {
		rc.rec.Attempted++
		b0, t0 := shardBytes(), time.Now()
		if err := fx.query(client, warmupOps+op); err != nil {
			rc.rec.fail(err)
		}
		t1 := time.Now()
		transferred += shardBytes() - b0
		if err := re(nil, op); err != nil {
			return fmt.Errorf("re-enactment: %w", err)
		}
		t2 := time.Now()
		if err := re(rec, op); err != nil {
			return fmt.Errorf("re-enactment: %w", err)
		}
		real = append(real, t1.Sub(t0))
		plain = append(plain, float64(t2.Sub(t1)))
		traced = append(traced, float64(time.Since(t2)))
	}
	if fx.writer != nil {
		fx.writer.stop()
		fx.writer.report(rc)
	}
	ops := len(real)
	rc.rec.Timings["op"] = summarise(real)
	rc.rec.Counts["reenacted_ops"] = float64(ops)
	e2e := time.Duration(median(durationsMS(real)) * float64(time.Millisecond))
	rc.rec.Counts["e2e_median_ms"] = ms(e2e)
	rc.values["trace.overhead_share"] = (median(traced) - median(plain)) / median(plain)
	layers := rc.layerValues(rec, 0, ops)
	if n := len(fx.shards); n > 0 {
		rc.values["dist.transfer_bytes_per_query"] = float64(transferred) / float64(ops)
		rc.values["dist.shard_rpc_ms"] /= float64(n) // one RPC, not the op's sum
	}
	if err := probeLibrary(rc, fx); err != nil {
		return err
	}
	floor, err := probeHTTPFloor(rc, client, http.MethodGet, fx.servers[len(fx.servers)-1].Base+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	rc.values["serve.query_self_ms"] = ms(e2e - layers)
	rc.values["trace.coverage"] = float64(layers+floor) / float64(e2e)
	return nil
}

// layerMetric maps a span's layer to the per-layer metric it feeds, with
// the unit the metric's name promises.
var layerMetric = map[layer]struct {
	name string
	conv func(time.Duration) float64
}{
	lServeReadFile:    {"serve.read_file_ms", ms},
	lServeDigest:      {"serve.digest_ms", ms},
	lTsioReadBinary:   {"tsio.read_binary_ms", ms},
	lModelSnapshotAt:  {"model.snapshot_at_ms", ms},
	lModelWindowBuild: {"model.window_build_ms", ms},
	lIncrementTick:    {"increment.tick_ms", ms},
	lCoreChain:        {"core.chain_ms", ms},
	lCoreCutsParams:   {"core.cuts_params_ms", ms},
	lSimplifyAll:      {"simplify.all_ms", ms},
	lCoreCutsFilter:   {"core.cuts_filter_ms", ms},
	lCoreCutsRefine:   {"core.cuts_refine_ms", ms},
	lWalReadRange:     {"wal.read_range_ms", ms},
	lWalAppend:        {"wal.append_us", us},
	lWireTicksDecode:  {"wire.ticks_decode_us", us},
	lDistShardRpc:     {"dist.shard_rpc_ms", ms},
	lDistMerge:        {"dist.merge_ms", ms},
}

// layerValues turns the spans recorded from index from on into per-op
// layer metrics and returns the per-op time that layer spans covered (the
// root's own self time — the benchmark's glue — excluded).
func (rc *runCtx) layerValues(rec *recorder, from, ops int) time.Duration {
	byLayer := rec.layerSelf(from)
	var covered time.Duration
	for l, d := range byLayer {
		if l == lOp {
			continue
		}
		per := d / time.Duration(ops)
		if m, ok := layerMetric[l]; ok {
			rc.values[m.name] = m.conv(per)
		}
		covered += per
	}
	// Parallel children (the two shard RPCs) each count their own self
	// time; what blocks the op is the part of the root they cover.
	var root time.Duration
	for _, s := range rec.spans[from:] {
		if s.Layer == lOp {
			root += s.End - s.Start
		}
	}
	return min(covered, (root-byLayer[lOp])/time.Duration(ops))
}

// batchReenactment re-enacts a cold path query on one node: read the file,
// hash it, decode it, mine it.
func batchReenactment(rc *runCtx, fx *queryFixture) reenactment {
	first := true
	return func(r *recorder, op int) error {
		root := r.start(lOp, op, -1)
		defer r.end(root)
		_, db, err := readHashParse(r, op, root, fx.files[op%len(fx.files)])
		if err != nil {
			return err
		}
		if fx.algo == wire.AlgoCMC {
			eng, err := reenactCMC(r, op, root, db, fx.params)
			if err == nil && first {
				engineShares(rc, eng)
			}
			first = false
			return err
		}
		run, err := reenactCuTS(r, op, root, db, fx.params)
		if err == nil && first {
			rc.values["core.candidates"] = float64(len(run.cands))
			var units float64
			for _, c := range run.cands {
				units += c.RefinementUnits()
			}
			rc.values["core.refine_units"] = units
			if len(run.cands) > 0 {
				rc.values["core.filter_precision"] = float64(run.convoys) / float64(len(run.cands))
			}
			rc.values["simplify.vertex_kept_share"] = float64(run.kept) / float64(run.total)
		}
		first = false
		return err
	}
}

// readHashParse is the front of every batch query: the server reads the
// referenced file, hashes it for the cache key, and decodes it.
func readHashParse(r *recorder, op, parent int, file string) ([]byte, *model.DB, error) {
	s := r.start(lServeReadFile, op, parent)
	data, err := os.ReadFile(file)
	r.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = r.start(lServeDigest, op, parent)
	sha256.Sum256(data)
	r.end(s)
	s = r.start(lTsioReadBinary, op, parent)
	db, err := tsio.ReadBinary(bytes.NewReader(data))
	r.end(s)
	return data, db, err
}

// engineShares records the incremental engine's wasted-work ratios.
func engineShares(rc *runCtx, eng *increment.Engine) {
	full, inc, reclustered, seen := eng.Counters()
	if passes := full + inc; passes > 0 {
		rc.values["increment.full_share"] = float64(full) / float64(passes)
	}
	if seen > 0 {
		rc.values["increment.reclustered_share"] = float64(reclustered) / float64(seen)
	}
}

// shardedReenactment re-enacts the coordinator: read, hash and decode the
// file, split the time range, post the bytes to both real shards at once,
// merge. The shards' own work happens inside the RPC spans.
func shardedReenactment(rc *runCtx, fx *queryFixture) reenactment {
	httpc := &http.Client{}
	spec := wire.QuerySpec{Params: wire.ParamsToJSON(fx.params), Algo: fx.algo}
	return func(r *recorder, op int) error {
		root := r.start(lOp, op, -1)
		defer r.end(root)
		data, db, err := readHashParse(r, op, root, fx.files[op%len(fx.files)])
		if err != nil {
			return err
		}
		lo, hi, _ := db.TimeRange()
		windows := core.PartitionWindows(lo, hi, fx.params.K, len(fx.shards))
		parts := make([][]wire.ConvoyJSON, len(windows))
		errs := make([]error, len(windows))
		var wg sync.WaitGroup
		for i, w := range windows {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := r.start(lDistShardRpc, op, root)
				defer r.end(s)
				sp := spec
				sp.From, sp.To = &w.Lo, &w.Hi
				cl := dist.Client{Base: fx.shards[i%len(fx.shards)], HTTP: httpc}
				resp, err := cl.Query(context.Background(), data, sp)
				parts[i], errs[i] = resp.Convoys, err
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		s := r.start(lDistMerge, op, root)
		id, label := dist.SortedLabelIndex(parts)
		_, err = dist.Merge(windows, parts, fx.params, id, label)
		r.end(s)
		return err
	}
}

// historyReenactment re-enacts a windowed query over a feed's log: read
// the window back from a WAL (the benchmark's own copy of the same
// blocks), rebuild a database from it, mine it.
func historyReenactment(rc *runCtx, fx *queryFixture) (reenactment, error) {
	blocks, err := streamBlocks(fx.stream, 0, fx.ingests)
	if err != nil {
		return nil, err
	}
	if err := probeTickBlock(rc, blocks[len(blocks)/2]); err != nil {
		return nil, err
	}
	log, appendMean, err := probeWAL(rc, blocks, historyWindow)
	if err != nil {
		return nil, err
	}
	st := log.Status()
	rc.values["wal.append_us"] = us(appendMean)
	rc.values["wal.bytes_per_tick"] = float64(st.Bytes) / float64(len(blocks))
	rc.values["wal.bytes_per_point_tick"] = float64(st.Bytes) / float64(fx.stream.positions(0, fx.ingests))
	rc.values["wal.segments"] = float64(st.Segments)
	first := true
	return func(r *recorder, op int) error {
		w := fx.windows[op%len(fx.windows)]
		root := r.start(lOp, op, -1)
		defer r.end(root)
		s := r.start(lWalReadRange, op, root)
		var got []tsio.TickBlock
		err := log.ReadRange(w.Lo, w.Hi, true, func(b tsio.TickBlock) error {
			got = append(got, b)
			return nil
		})
		r.end(s)
		if err != nil {
			return err
		}
		s = r.start(lModelWindowBuild, op, root)
		db, err := buildWindowDB(got)
		r.end(s)
		if err != nil {
			return err
		}
		eng, err := reenactCMC(r, op, root, db, fx.params)
		if err == nil && first {
			engineShares(rc, eng)
		}
		first = false
		return err
	}, nil
}

// probeLibrary times the mining library directly on the workload's
// in-memory database — no server, no file — and the spatial layers on its
// tick snapshots.
func probeLibrary(rc *runCtx, fx *queryFixture) error {
	db := fx.dbs[0]
	if fx.stream != nil {
		db, _ = core.SliceTime(db, fx.windows[0].Lo, fx.windows[0].Hi)
	}
	lo, hi, _ := db.TimeRange()
	if fx.algo == wire.AlgoCMC {
		var st core.Stats
		var err error
		q := core.NewQuery(core.WithParams(fx.params), core.WithCMC(), core.WithStats(&st))
		cmc := medianOf(5, func() {
			if _, e := q.Run(context.Background(), db); e != nil {
				err = e
			}
		})
		if err != nil {
			return err
		}
		rc.values["core.cmc_ms"] = ms(cmc)
		rc.values["core.cluster_passes"] = float64(st.ClusterPasses)
		parts := rc.values["model.snapshot_at_ms"] + rc.values["increment.tick_ms"] + rc.values["core.chain_ms"]
		rc.values["core.cmc_coverage"] = parts / ms(cmc)
	}
	probeClustering(rc, snapshots(db, lo, hi), fx.params.Eps, fx.params.M)
	if len(fx.shards) == 0 {
		return nil
	}
	// The in-process cost of partitioning: split, slice each window, and
	// stitch the partials (mined outside the timed part).
	var windows []core.Window
	var slices []*model.DB
	var maps [][]model.ObjectID
	split := medianOf(3, func() {
		windows = core.PartitionWindows(lo, hi, fx.params.K, len(fx.shards))
		slices, maps = slices[:0], maps[:0]
		for _, w := range windows {
			sub, ids := core.SliceTime(db, w.Lo, w.Hi)
			slices, maps = append(slices, sub), append(maps, ids)
		}
	})
	parts := make([][]core.Convoy, len(windows))
	for i, sub := range slices {
		res, err := core.NewQuery(core.WithParams(fx.params), core.WithCMC()).Run(context.Background(), sub)
		if err != nil {
			return err
		}
		parts[i] = core.RemapConvoys(res, maps[i])
	}
	merge := medianOf(3, func() { core.MergePartials(windows, parts, fx.params) })
	rc.values["core.partition_merge_ms"] = ms(split + merge)
	return nil
}

// feedPipeline is the feed worker's per-tick work re-enacted with public
// calls: decode the request, log the tick, cluster once per distinct key,
// advance every monitor.
type feedPipeline struct {
	log      *wal.Log
	ids      map[string]model.ObjectID
	engines  map[core.ClusterKey]*increment.Engine
	monitors []*core.Monitor
	keys     []core.ClusterKey // monitors[i] chains clusters of keys[i]
}

func newFeedPipeline(rc *runCtx) (*feedPipeline, error) {
	dir, err := rc.subdir("pipeline-wal")
	if err != nil {
		return nil, err
	}
	p := &feedPipeline{ids: map[string]model.ObjectID{}, engines: map[core.ClusterKey]*increment.Engine{}}
	if p.log, err = wal.Create(dir, nil, wal.Options{Fsync: wal.FsyncNever}); err != nil {
		return nil, err
	}
	rc.cleanup = append(rc.cleanup, p.log.Close)
	for _, m := range feedMonitors {
		mon, err := core.NewMonitor(m.P)
		if err != nil {
			return nil, err
		}
		key := m.P.ClusterKey()
		if p.engines[key] == nil {
			p.engines[key] = increment.New(key.Eps, key.M, increment.DefaultChurnThreshold)
		}
		p.monitors, p.keys = append(p.monitors, mon), append(p.keys, key)
	}
	return p, nil
}

func (p *feedPipeline) tick(r *recorder, op int, body []byte) error {
	root := r.start(lOp, op, -1)
	defer r.end(root)
	s := r.start(lWireTicksDecode, op, root)
	var req wire.TicksRequest
	err := json.Unmarshal(body, &req)
	r.end(s)
	if err != nil {
		return err
	}
	b := req.Ticks[0]
	ids := make([]model.ObjectID, len(b.Positions))
	pts := make([]geom.Point, len(b.Positions))
	for i, pos := range b.Positions {
		id, ok := p.ids[pos.ID]
		if !ok {
			id = len(p.ids)
			p.ids[pos.ID] = id
		}
		ids[i], pts[i] = id, geom.Pt(pos.X, pos.Y)
	}
	blk := toBlock(b)
	s = r.start(lWalAppend, op, root) // encodes the tick block, frames and writes it
	err = p.log.Append(blk)
	r.end(s)
	if err != nil {
		return err
	}
	clusters := make(map[core.ClusterKey][][]model.ObjectID, len(p.engines))
	for key, eng := range p.engines {
		s = r.start(lIncrementTick, op, root)
		clusters[key], _ = eng.Tick(ids, pts)
		r.end(s)
	}
	for i, mon := range p.monitors {
		s = r.start(lCoreChain, op, root)
		_, err := mon.AdvanceClusters(b.T, clusters[p.keys[i]])
		r.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// traceFeed is the traced pass of feed-commute after its (shortened) real
// phases: re-enact the stream's ticks through two identical pipelines, one
// recorded and one not, and probe the layers a tick crosses. meanTick is
// the real closed-loop service time the layer sum is held against.
func traceFeed(rc *runCtx, fx *feedFixture, meanTick time.Duration) error {
	n := fx.ticksA
	plain, err := newFeedPipeline(rc)
	if err != nil {
		return err
	}
	traced, err := newFeedPipeline(rc)
	if err != nil {
		return err
	}
	rec := newRecorder()
	rc.spans = rec
	var plainNS, tracedNS time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := plain.tick(nil, i, fx.stream.body(i)); err != nil {
			return fmt.Errorf("re-enactment: %w", err)
		}
		t1 := time.Now()
		if err := traced.tick(rec, i, fx.stream.body(i)); err != nil {
			return fmt.Errorf("re-enactment: %w", err)
		}
		if i >= feedWarmup {
			plainNS += t1.Sub(t0)
			tracedNS += time.Since(t1)
		}
	}
	rc.rec.Counts["reenacted_ops"] = float64(n)
	rc.values["trace.overhead_share"] = float64(tracedNS-plainNS) / float64(plainNS)
	warm := 0
	for warm < len(rec.spans) && rec.spans[warm].Op < feedWarmup {
		warm++
	}
	covered := rc.layerValues(rec, warm, n-feedWarmup)
	engineShares(rc, traced.engines[feedMonitors[0].P.ClusterKey()])

	blocks, err := streamBlocks(fx.stream, 0, n)
	if err != nil {
		return err
	}
	if err := probeTickBlock(rc, blocks[n/2]); err != nil {
		return err
	}
	// Append time comes from the pipeline's spans and the log's size from
	// the live feed; the probe adds the read side.
	if _, _, err := probeWAL(rc, blocks, 1000); err != nil {
		return err
	}
	p := feedMonitors[0].P
	snaps := snapshots(fx.db, fx.stream.T[0], fx.stream.T[min(n, 1000)-1])
	probeClustering(rc, snaps, p.Eps, p.M)
	rc.values["dbscan.cluster_ms"] /= float64(len(snaps)) // per op: one tick

	client := newClient()
	defer client.CloseIdleConnections()
	h, _, err := startFeedServer(rc)
	if err != nil {
		return err
	}
	floor, err := probeHTTPFloor(rc, client, http.MethodPost, h.Base+"/v1/feeds/"+feedName+"/ticks", []byte(`{"ticks":[]}`))
	if err := errors.Join(err, h.stop()); err != nil {
		return err
	}
	rc.values["serve.tick_self_us"] = us(meanTick - covered)
	rc.values["trace.coverage"] = float64(covered+floor) / float64(meanTick)
	rc.rec.Counts["e2e_mean_tick_us"] = us(meanTick)
	return nil
}
