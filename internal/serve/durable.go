package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/model"
	"repro/internal/tsio"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Durable feeds: the glue between the serve layer and internal/wal.
//
// A durable feed (Config.WALDir set) owns WALDir/feeds/<escaped-name>: a
// manifest recording its creation spec, CRC-framed tick segments holding
// every accepted batch, and a spec journal holding the dynamic operations
// (monitor add/remove) tagged with the stream position
// they happened at. Recovery rebuilds a feed by replaying exactly what a
// client did: the manifest re-creates it, the tick blocks re-ingest
// through the same applyBatch path live traffic uses, and the journal ops
// interleave at their recorded positions — so the monitor table, the
// dense label interning, the event history and every counter come back
// identical to a process that never died.
//
// Deliberately NOT the core.ReplayTicks path: that bridge walks a stored
// database over its whole time domain, interpolating positions for every
// tick in range, which is the right semantics for driving a feed from a
// trajectory file but the wrong one for recovery — a live feed only
// advanced on the ticks clients actually POSTed, and recovery must
// reproduce those ticks verbatim, gaps included.

// feedWALDirName is the per-feed subdirectory under Config.WALDir.
const feedWALDirName = "feeds"

// feedWALDir is the directory of one feed's log. The name is URL-escaped:
// feed names may hold any non-path byte, file systems are pickier.
func feedWALDir(walRoot, name string) string {
	return filepath.Join(walRoot, feedWALDirName, url.PathEscape(name))
}

// walOptions maps the server config onto one feed's log options.
func walOptions(cfg Config) wal.Options {
	return wal.Options{
		SegmentBytes:  cfg.WALSegmentBytes,
		SegmentAge:    cfg.WALSegmentAge,
		Fsync:         cfg.WALFsync,
		FsyncInterval: cfg.WALFsyncInterval,
		RetainTicks:   cfg.WALRetainTicks,
		Observer:      cfg.metrics,
	}
}

// feedManifest is the creation record stored in a feed's WAL manifest:
// the normalized creation spec.
type feedManifest struct {
	Name      string     `json:"name"`
	Params    ParamsJSON `json:"params"`
	Clusterer string     `json:"clusterer"`
}

// specOp is one spec-journal entry: a dynamic feed-specification change,
// tagged with the stream position it happened at so recovery interleaves
// it exactly (a monitor added after tick 7 starts chaining at the first
// replayed tick after 7, just like it did live).
type specOp struct {
	// Op is "monitor-add" or "monitor-remove".
	Op string `json:"op"`
	// ID names the monitor for the monitor ops.
	ID string `json:"id,omitempty"`
	// Params and Clusterer carry a monitor-add's spec.
	Params    *ParamsJSON `json:"params,omitempty"`
	Clusterer string      `json:"clusterer,omitempty"`
	// AfterTick/Started record the feed's stream position at the time of
	// the op: Started=false means before any tick.
	AfterTick int64 `json:"after_tick"`
	Started   bool  `json:"started"`
}

const (
	opMonitorAdd    = "monitor-add"
	opMonitorRemove = "monitor-remove"
	// opIncremental journaled a per-feed incremental-clustering flip in
	// PR 9–11 builds. The knob is gone (it never changed an answer), so
	// replay skips the entry instead of failing recovery on an unknown op.
	opIncremental = "incremental"
)

// feedWAL bundles one durable feed's persistence handles. The feed worker
// owns it like the rest of the feed state (the wal package's own locks
// only serialize against the interval-fsync goroutine).
type feedWAL struct {
	log *wal.Log
	jnl *wal.Journal
	// recovery describes the replay that resurrected this feed; zero for a
	// freshly created one.
	recovery RecoveryInfo
}

// RecoveryInfo summarizes one feed's crash recovery (the recovery block
// of GET /v1/feeds/{name}/wal).
type RecoveryInfo struct {
	// Recovered is true when this feed was rebuilt from its WAL at server
	// start (false for feeds created over HTTP since).
	Recovered bool
	// ReplayedTicks counts the tick batches re-applied; SkippedTicks the
	// batches dropped as already-applied duplicates (batch-level
	// idempotence: at-least-once ingestion may log a batch the previous
	// process also logged).
	ReplayedTicks int64
	SkippedTicks  int64
	// ReplayedOps counts the spec-journal operations re-applied.
	ReplayedOps int64
	// TruncatedBytes is the torn tail dropped from the segments and the
	// journal — > 0 means the previous process died mid-append.
	TruncatedBytes int64
	// Duration is the replay's wall time.
	Duration time.Duration
}

// close releases the file handles; the files stay on disk.
func (w *feedWAL) close() error {
	err := w.log.Close()
	if jerr := w.jnl.Close(); err == nil {
		err = jerr
	}
	return err
}

// appendSpecOp stamps the feed's current stream position onto the op and
// journals it durably.
func (f *feed) appendSpecOp(op specOp) error {
	op.AfterTick = int64(f.lastTick)
	op.Started = f.started
	data, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("serve: encode spec op: %w", err)
	}
	return f.w.jnl.Append(data)
}

// tickBlock converts a validated wire batch to its persisted form.
func tickBlock(b TickBatch) tsio.TickBlock {
	blk := tsio.TickBlock{T: b.T}
	if len(b.Positions) > 0 {
		blk.Positions = make([]tsio.TickPosition, len(b.Positions))
		for i, p := range b.Positions {
			blk.Positions[i] = tsio.TickPosition{Label: p.ID, X: p.X, Y: p.Y}
		}
	}
	if len(b.Edges) > 0 {
		blk.Edges = make([]tsio.TickEdge, len(b.Edges))
		for i, e := range b.Edges {
			blk.Edges[i] = tsio.TickEdge{A: e.A, B: e.B, W: e.W}
		}
	}
	return blk
}

// tickBatch converts a persisted block back to the wire form applyBatch
// consumes.
func tickBatch(blk tsio.TickBlock) TickBatch {
	b := TickBatch{T: blk.T}
	if len(blk.Positions) > 0 {
		b.Positions = make([]Position, len(blk.Positions))
		for i, p := range blk.Positions {
			b.Positions[i] = Position{ID: p.Label, X: p.X, Y: p.Y}
		}
	}
	if len(blk.Edges) > 0 {
		b.Edges = make([]EdgeJSON, len(blk.Edges))
		for i, e := range blk.Edges {
			b.Edges[i] = EdgeJSON{A: e.A, B: e.B, W: e.W}
		}
	}
	return b
}

// createFeedWAL initialises a fresh log for a feed being created; the
// caller has already checked no log exists under the name.
func createFeedWAL(cfg Config, name string, p ParamsJSON, clusterer string) (*feedWAL, error) {
	meta, err := json.Marshal(feedManifest{Name: name, Params: p, Clusterer: clusterer})
	if err != nil {
		return nil, fmt.Errorf("serve: encode feed manifest: %w", err)
	}
	dir := feedWALDir(cfg.WALDir, name)
	log, err := wal.Create(dir, meta, walOptions(cfg))
	if err != nil {
		return nil, fmt.Errorf("serve: create feed wal: %w", err)
	}
	jnl, _, _, err := wal.OpenJournal(dir)
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("serve: open spec journal: %w", err)
	}
	return &feedWAL{log: log, jnl: jnl}, nil
}

// recoverFeed rebuilds one feed from its WAL directory: manifest →
// creation, tick segments + spec journal → replay, then the worker
// starts. The returned feed is registered by the caller.
func recoverFeed(cfg Config, dir string) (*feed, error) {
	t0 := time.Now()
	log, meta, err := wal.Open(dir, walOptions(cfg))
	if err != nil {
		return nil, err
	}
	var mf feedManifest
	if err := json.Unmarshal(meta, &mf); err != nil {
		log.Close()
		return nil, fmt.Errorf("decode feed manifest: %w", err)
	}
	jnl, rawOps, jnlTruncated, err := wal.OpenJournal(dir)
	if err != nil {
		log.Close()
		return nil, err
	}
	w := &feedWAL{log: log, jnl: jnl}
	cl, err := wire.ParseClusterer(mf.Clusterer)
	if err != nil {
		w.close()
		return nil, err
	}
	f, err := buildFeed(mf.Name, mf.Params.Params(), cl, cfg, w)
	if err != nil {
		w.close()
		return nil, err
	}
	ops := make([]specOp, 0, len(rawOps))
	for i, raw := range rawOps {
		var op specOp
		if err := json.Unmarshal(raw, &op); err != nil {
			w.close()
			return nil, fmt.Errorf("decode spec op %d: %w", i, err)
		}
		ops = append(ops, op)
	}

	// Replay: the worker is not running yet, so the feed state is safe to
	// touch directly. Journal ops recorded at stream position (started,
	// afterTick) apply once the replayed stream reaches that position —
	// before the first batch whose tick is past it.
	f.recovering = true
	opIdx := 0
	applyOps := func(nextTick model.Tick, haveNext bool) error {
		for opIdx < len(ops) {
			op := ops[opIdx]
			due := !op.Started || !haveNext || op.AfterTick < int64(nextTick)
			if !due {
				return nil
			}
			if err := f.applySpecOp(op); err != nil {
				return fmt.Errorf("replay spec op %d (%s %q): %w", opIdx, op.Op, op.ID, err)
			}
			f.w.recovery.ReplayedOps++
			opIdx++
		}
		return nil
	}
	err = log.Replay(func(blk tsio.TickBlock) error {
		if f.started && blk.T <= f.lastTick {
			// Batch-level idempotence: at-least-once ingestion can log a
			// batch twice across a crash; the replayed copy is a no-op.
			f.w.recovery.SkippedTicks++
			return nil
		}
		if err := applyOps(blk.T, true); err != nil {
			return err
		}
		if _, err := f.applyBatch(tickBatch(blk), nil); err != nil {
			return fmt.Errorf("replay tick %d: %w", blk.T, err)
		}
		f.w.recovery.ReplayedTicks++
		return nil
	})
	if err == nil {
		// Ops recorded after the last durable tick (or on a feed that never
		// ticked) apply at the end.
		err = applyOps(0, false)
	}
	if err != nil {
		w.close()
		return nil, err
	}
	f.recovering = false
	f.w.recovery.Recovered = true
	f.w.recovery.TruncatedBytes = log.Status().TruncatedBytes + jnlTruncated
	f.w.recovery.Duration = time.Since(t0)
	f.lastActive.Store(time.Now().UnixNano())
	go f.run()
	return f, nil
}

// applySpecOp re-applies one journaled operation during replay (worker
// not yet running).
func (f *feed) applySpecOp(op specOp) error {
	switch op.Op {
	case opMonitorAdd:
		var p ParamsJSON
		if op.Params != nil {
			p = *op.Params
		}
		cl, err := wire.ParseClusterer(op.Clusterer)
		if err != nil {
			return err
		}
		return f.insertMonitor(op.ID, p.Params(), cl)
	case opMonitorRemove:
		_, err := f.dropMonitor(op.ID)
		return err
	case opIncremental:
		return nil
	default:
		return fmt.Errorf("unknown spec op %q", op.Op)
	}
}

// recoverFeeds scans cfg.WALDir for feed logs and resurrects each into
// the registry — the recovery-on-start path, run by New before the server
// takes traffic. A feed whose log is damaged beyond the torn tail is
// logged and skipped; its directory stays on disk for inspection and does
// not block the rest.
func (r *registry) recoverFeeds(cfg Config) {
	root := filepath.Join(cfg.WALDir, feedWALDirName)
	entries, err := os.ReadDir(root)
	if err != nil {
		if !os.IsNotExist(err) {
			cfg.Logger.Error("wal recovery: scan failed", "dir", root, "error", err.Error())
		}
		return
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	t0 := time.Now()
	var recovered, failed int
	for _, name := range names {
		dir := filepath.Join(root, name)
		if !wal.Exists(dir) {
			continue // not a feed log (no manifest); leave it alone
		}
		f, err := recoverFeed(cfg, dir)
		if err != nil {
			failed++
			cfg.Logger.Error("wal recovery: feed skipped", "dir", dir, "error", err.Error())
			continue
		}
		r.mu.Lock()
		r.feeds[f.name] = f
		r.mu.Unlock()
		recovered++
		cfg.metrics.walRecoveredFeeds.Inc()
		cfg.metrics.walReplayedTicks.Add(float64(f.w.recovery.ReplayedTicks))
		cfg.metrics.walTruncatedBytes.Add(float64(f.w.recovery.TruncatedBytes))
		cfg.Logger.Info("feed recovered from wal",
			"feed", f.name,
			"ticks", f.w.recovery.ReplayedTicks,
			"ops", f.w.recovery.ReplayedOps,
			"skipped", f.w.recovery.SkippedTicks,
			"truncated_bytes", f.w.recovery.TruncatedBytes,
			"duration_ms", msFloat(f.w.recovery.Duration))
	}
	cfg.metrics.walRecoverySeconds.Set(time.Since(t0).Seconds())
	if recovered > 0 || failed > 0 {
		cfg.Logger.Info("wal recovery finished",
			"recovered", recovered, "failed", failed,
			"duration_ms", msFloat(time.Since(t0)))
	}
}

// walStatus snapshots the feed's log and recovery stats through the
// mailbox, so the counters are coherent with the stream position.
func (f *feed) walStatus(ctx context.Context) (wal.Status, RecoveryInfo, error) {
	type walSnap struct {
		st  wal.Status
		rec RecoveryInfo
	}
	v, err := f.do(ctx, func(f *feed) (any, error) {
		if f.w == nil {
			return nil, errNoWAL
		}
		return walSnap{f.w.log.Status(), f.w.recovery}, nil
	})
	if err != nil {
		return wal.Status{}, RecoveryInfo{}, err
	}
	s := v.(walSnap)
	return s.st, s.rec, nil
}

// walStatusJSON renders a log snapshot for GET /v1/feeds/{name}/wal.
func walStatusJSON(feed string, fsync wal.FsyncPolicy, st wal.Status, rec RecoveryInfo) WALStatusJSON {
	out := WALStatusJSON{
		Feed:              feed,
		Fsync:             fsync.String(),
		Segments:          st.Segments,
		Bytes:             st.Bytes,
		Records:           st.Records,
		AppendedRecords:   st.AppendedRecords,
		AppendedBytes:     st.AppendedBytes,
		CompactedSegments: st.CompactedSegments,
	}
	if st.HasTicks {
		first, last := model.Tick(st.FirstTick), model.Tick(st.LastTick)
		out.FirstTick, out.LastTick = &first, &last
	}
	if !st.LastSync.IsZero() {
		t := st.LastSync
		out.LastSync = &t
	}
	if rec.Recovered {
		out.Recovery = &WALRecoveryJSON{
			ReplayedTicks:  rec.ReplayedTicks,
			SkippedTicks:   rec.SkippedTicks,
			ReplayedOps:    rec.ReplayedOps,
			TruncatedBytes: rec.TruncatedBytes,
			DurationMS:     msFloat(rec.Duration),
		}
	}
	return out
}
