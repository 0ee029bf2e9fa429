package feed

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"

	"repro/internal/model"
	"repro/internal/tsio"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Durable feeds: the glue between the feed runtime and internal/wal.
//
// A durable feed (Config.WALDir set) owns LogDir(WALDir, name): a manifest
// recording its creation spec, CRC-framed tick segments holding every
// accepted batch, and a spec journal holding the dynamic operations
// (monitor add/remove) tagged with the stream position they happened at.
// Recovery rebuilds a feed by replaying exactly what a client did: the
// manifest re-creates it, the tick blocks re-ingest through the same
// applyBatch path live traffic uses, and the journal ops interleave at
// their recorded positions — so the monitor table, the dense label
// interning, the event history and every counter come back identical to a
// process that never died.
//
// Deliberately NOT the core.ReplayTicks path: that bridge walks a stored
// database over its whole time domain, interpolating positions for every
// tick in range, which is the right semantics for turning a trajectory
// file into a stream but the wrong one for recovery — a live feed only
// advanced on the ticks clients actually POSTed, and recovery must
// reproduce those ticks verbatim, gaps included.

// manifest is the creation record stored in a feed's WAL manifest: the
// normalized creation spec. Clusterer is only read: older builds wrote the
// default monitor's backend there, and a log naming any but the default
// fails recovery (wire.CheckClusterer) rather than replaying contact feeds
// as position feeds.
type manifest struct {
	Name      string          `json:"name"`
	Params    wire.ParamsJSON `json:"params"`
	Clusterer string          `json:"clusterer,omitempty"`
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
	// Params carries a monitor-add's spec; Clusterer is the legacy backend
	// older builds journaled beside it, only read, as on the manifest.
	Params    *wire.ParamsJSON `json:"params,omitempty"`
	Clusterer string           `json:"clusterer,omitempty"`
	// AfterTick/Started record the feed's stream position at the time of
	// the op: Started=false means before any tick.
	AfterTick int64 `json:"after_tick"`
	Started   bool  `json:"started"`
}

const (
	opMonitorAdd    = "monitor-add"
	opMonitorRemove = "monitor-remove"
	// opIncremental journaled a per-feed incremental-clustering flip in
	// older builds. The knob is gone (it never changed an answer), so
	// replay skips the entry instead of failing recovery on an unknown op.
	opIncremental = "incremental"
)

// durable bundles one durable feed's persistence handles. The feed's lock
// guards it like the rest of the feed state (the wal package's own locks
// only serialize against the interval-fsync goroutine).
type durable struct {
	log *wal.Log
	jnl *wal.Journal
	// recovery describes the replay that resurrected this feed; nil for a
	// freshly created one.
	recovery *wire.WALRecoveryJSON
}

// close releases the file handles; the files stay on disk.
func (w *durable) close() error {
	err := w.log.Close()
	if jerr := w.jnl.Close(); err == nil {
		err = jerr
	}
	return err
}

// appendSpecOp stamps the feed's current stream position onto the op and
// journals it durably.
func (f *Feed) appendSpecOp(op specOp) error {
	op.AfterTick = int64(f.lastTick)
	op.Started = f.started
	data, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("feed: encode spec op: %w", err)
	}
	return f.w.jnl.Append(data)
}

// createLog initialises a fresh log for a feed being created; the caller
// has already checked no log exists under the name.
func createLog(cfg Config, name string, p wire.ParamsJSON) (*durable, error) {
	meta, err := json.Marshal(manifest{Name: name, Params: p})
	if err != nil {
		return nil, fmt.Errorf("feed: encode feed manifest: %w", err)
	}
	dir := LogDir(cfg.WALDir, name)
	log, err := wal.Create(dir, meta, cfg.WAL)
	if err != nil {
		return nil, fmt.Errorf("feed: create feed wal: %w", err)
	}
	jnl, _, _, err := wal.OpenJournal(dir, cfg.WAL)
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("feed: open spec journal: %w", err)
	}
	return &durable{log: log, jnl: jnl}, nil
}

// recoverFeed rebuilds one feed from its WAL directory: manifest →
// creation, tick segments + spec journal → replay. The returned feed is
// registered by the caller.
func recoverFeed(cfg Config, dir string) (*Feed, error) {
	t0 := cfg.Now()
	log, meta, err := wal.Open(dir, cfg.WAL)
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(meta, &mf); err != nil {
		log.Close()
		return nil, fmt.Errorf("decode feed manifest: %w", err)
	}
	jnl, rawOps, jnlTruncated, err := wal.OpenJournal(dir, cfg.WAL)
	if err != nil {
		log.Close()
		return nil, err
	}
	w := &durable{log: log, jnl: jnl}
	if err := wire.CheckClusterer(mf.Clusterer); err != nil {
		w.close()
		return nil, err
	}
	f, err := build(mf.Name, mf.Params.Params(), cfg, w)
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

	// Replay: the feed is not registered yet, so its state is safe to
	// touch without the lock. Journal ops recorded at stream position
	// (started, afterTick) apply once the replayed stream reaches that
	// position — before the first batch whose tick is past it.
	f.recovering = true
	rec := &wire.WALRecoveryJSON{}
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
			rec.ReplayedOps++
			opIdx++
		}
		return nil
	}
	err = log.Replay(func(blk tsio.TickBlock) error {
		if f.started && blk.T <= f.lastTick {
			// Batch-level idempotence: at-least-once ingestion can log a
			// batch twice across a crash; the replayed copy is a no-op.
			rec.SkippedTicks++
			return nil
		}
		if err := applyOps(blk.T, true); err != nil {
			return err
		}
		if _, err := f.applyBatch(tickBatch(blk), nil); err != nil {
			return fmt.Errorf("replay tick %d: %w", blk.T, err)
		}
		rec.ReplayedTicks++
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
	rec.TruncatedBytes = log.Status().TruncatedBytes + jnlTruncated
	rec.DurationMS = msFloat(cfg.Now().Sub(t0))
	w.recovery = rec
	f.touch()
	return f, nil
}

// applySpecOp re-applies one journaled operation during replay (feed not
// yet registered).
func (f *Feed) applySpecOp(op specOp) error {
	switch op.Op {
	case opMonitorAdd:
		var p wire.ParamsJSON
		if op.Params != nil {
			p = *op.Params
		}
		if err := wire.CheckClusterer(op.Clusterer); err != nil {
			return err
		}
		return f.insertMonitor(op.ID, p.Params())
	case opMonitorRemove:
		_, err := f.dropMonitor(op.ID)
		return err
	case opIncremental:
		return nil
	default:
		return fmt.Errorf("unknown spec op %q", op.Op)
	}
}

// Recover scans Config.WALDir for feed logs and resurrects each into the
// registry — the recovery-on-start path, run before the registry takes
// traffic, so a restarted daemon is state-identical to one that never
// stopped. A feed whose log is damaged beyond the torn tail is logged and
// skipped; its directory stays on disk for inspection and does not block
// the rest. Without a WAL directory there is nothing to recover.
func (r *Registry) Recover() {
	if r.cfg.WALDir == "" {
		return
	}
	cfg := r.cfg
	root := filepath.Join(cfg.WALDir, feedsDirName)
	entries, err := cfg.WAL.FS.ReadDir(root)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
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
	t0 := cfg.Now()
	var recovered, failed int
	for _, name := range names {
		dir := filepath.Join(root, name)
		if !wal.Exists(dir, cfg.WAL) {
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
		rec := f.w.recovery
		cfg.Observer.OnRecovered(*rec)
		cfg.Logger.Info("feed recovered from wal",
			"feed", f.name,
			"ticks", rec.ReplayedTicks,
			"ops", rec.ReplayedOps,
			"skipped", rec.SkippedTicks,
			"truncated_bytes", rec.TruncatedBytes,
			"duration_ms", rec.DurationMS)
	}
	d := cfg.Now().Sub(t0)
	cfg.Observer.OnRecoveryDone(d)
	if recovered > 0 || failed > 0 {
		cfg.Logger.Info("wal recovery finished",
			"recovered", recovered, "failed", failed,
			"duration_ms", msFloat(d))
	}
}

// WALStatus snapshots the feed's log and recovery stats under the feed's
// lock, so the counters are coherent with the stream position (ErrNoWAL on
// an in-memory feed).
func (f *Feed) WALStatus(ctx context.Context) (wire.WALStatusJSON, error) {
	if err := f.acquire(ctx); err != nil {
		return wire.WALStatusJSON{}, err
	}
	defer f.release()
	if f.w == nil {
		return wire.WALStatusJSON{}, ErrNoWAL
	}
	return walStatusJSON(f.name, f.cfg.WAL.Fsync, f.w.log.Status(), f.w.recovery), nil
}

// walStatusJSON renders a log snapshot in its wire form.
func walStatusJSON(feed string, fsync wal.FsyncPolicy, st wal.Status, rec *wire.WALRecoveryJSON) wire.WALStatusJSON {
	out := wire.WALStatusJSON{
		Feed:              feed,
		Fsync:             fsync.String(),
		Segments:          st.Segments,
		Bytes:             st.Bytes,
		Records:           st.Records,
		AppendedRecords:   st.AppendedRecords,
		AppendedBytes:     st.AppendedBytes,
		CompactedSegments: st.CompactedSegments,
		Recovery:          rec,
	}
	if st.HasTicks {
		first, last := model.Tick(st.FirstTick), model.Tick(st.LastTick)
		out.FirstTick, out.LastTick = &first, &last
	}
	if !st.LastSync.IsZero() {
		t := st.LastSync
		out.LastSync = &t
	}
	return out
}

// ReadWindow walks the logged tick blocks with from ≤ t ≤ to through v in
// ingestion order — the read under a history query (ErrNoWAL on an
// in-memory feed). It holds the feed's lock, which orders the read against
// close: close waits for a running read before it closes the log, and a
// read after close fails with ErrFeedClosed, so Registry.Remove never
// deletes the log's directory under a read. (Compaction needs no lock: the
// log keeps a compacted segment's file until the last read that
// snapshotted it ends.)
func (f *Feed) ReadWindow(ctx context.Context, from, to model.Tick, v tsio.TickBlockVisitor) error {
	f.touch()
	if err := f.acquire(ctx); err != nil {
		return err
	}
	defer f.release()
	if f.w == nil {
		return ErrNoWAL
	}
	return f.w.log.ReadRecords(from, to, true, func(_ model.Tick, payload []byte) error {
		return tsio.WalkTickBlock(payload, v)
	})
}
