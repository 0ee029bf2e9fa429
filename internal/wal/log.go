package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/tsio"
)

// errClosed reports an operation on a closed log.
var errClosed = errors.New("wal: log closed")

// manifestName is the creation record's file name inside a log directory.
const manifestName = "MANIFEST"

// manifest is the creation record: the format version and the owner's
// opaque spec (the serving layer stores the feed's creation spec here and
// gets it back verbatim from Open).
type manifest struct {
	Version int             `json:"version"`
	Meta    json.RawMessage `json:"meta,omitempty"`
}

// manifestVersion is the current on-disk format version.
const manifestVersion = 1

// Log is one feed's write-ahead log: a directory of tick segments plus a
// spec journal, owned by exactly one process at a time (its feed
// serializes appends; the interval-sync goroutine only ever fsyncs).
type Log struct {
	dir string
	opt Options

	mu     sync.Mutex
	segs   []segmentMeta // ascending index; the last one is active
	active File
	// activeSince is when the active segment was created (age rotation).
	activeSince time.Time
	dirty       bool // unsynced bytes in the active segment
	closed      bool
	// broken is set when a refused record could not be cut back off the
	// active segment: the tail is unknown, so every later append fails
	// with it until the log is reopened.
	broken error
	// frame is Append's record buffer, reused from one append to the next
	// (l.mu held); one past maxKeptFrame is dropped after its write.
	frame []byte
	// reader is the range reads' scratch — the segment read buffer and the
	// segment list snapshot — kept from one read to the next. A read takes
	// it out under l.mu and puts it back when done, so concurrent reads
	// never share it: one that finds it taken makes its own.
	reader *readScratch
	// reads counts the range reads running. Each walks a snapshot of segs,
	// so while one runs compaction drops a segment from segs but leaves
	// its file, listed in doomed; the last read to end removes them.
	reads  int
	doomed []string

	lastSync        time.Time
	appendedRecords int64
	appendedBytes   int64
	compacted       int64
	truncatedBytes  int64

	stop     chan struct{}
	syncDone chan struct{}
}

// Exists reports whether dir, on opt.FS, already holds a log (its
// manifest).
func Exists(dir string, opt Options) bool {
	_, err := opt.withDefaults().FS.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Create initialises a fresh log in dir (created if missing), recording
// meta — opaque owner bytes, returned verbatim by Open — in the manifest.
// It fails if dir already holds a log.
func Create(dir string, meta []byte, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if Exists(dir, opt) {
		return nil, fmt.Errorf("wal: %s: log already exists", dir)
	}
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	data, err := json.Marshal(manifest{Version: manifestVersion, Meta: meta})
	if err != nil {
		return nil, fmt.Errorf("wal: encode manifest: %w", err)
	}
	// The manifest is written once and must be durable before the feed
	// acknowledges its creation: temp file, fsync, rename, fsync the dir.
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := opt.FS.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("wal: write manifest: %w", err)
	}
	if err := opt.FS.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(opt.FS, dir); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt, stop: make(chan struct{}), syncDone: make(chan struct{})}
	if err := l.activate(1); err != nil {
		return nil, err
	}
	l.startSyncLoop()
	return l, nil
}

// Open resumes an existing log: the manifest's meta bytes are returned,
// every sealed segment is CRC-verified, a torn tail of the final segment
// is truncated away (its size lands in Status.TruncatedBytes), and the
// final segment is reopened for appending. Corruption anywhere before the
// tail fails the open — the directory is left untouched for inspection.
func Open(dir string, opt Options) (*Log, []byte, error) {
	opt = opt.withDefaults()
	raw, err := opt.FS.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, nil, fmt.Errorf("wal: decode manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, nil, fmt.Errorf("wal: manifest version %d (want %d)", m.Version, manifestVersion)
	}
	indexes, err := segmentIndexes(opt.FS, dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{dir: dir, opt: opt, stop: make(chan struct{}), syncDone: make(chan struct{})}
	for i, idx := range indexes {
		last := i == len(indexes)-1
		res, err := scanSegment(opt.FS, filepath.Join(dir, segmentName(idx)), idx, last)
		if err != nil {
			return nil, nil, err
		}
		if res.tornBytes > 0 {
			// The crash signature: drop the partial record (and anything
			// after it) so the segment ends on a record boundary again.
			if err := opt.FS.Truncate(res.meta.path, res.meta.bytes); err != nil {
				return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			l.truncatedBytes += res.tornBytes
		}
		l.segs = append(l.segs, res.meta)
	}
	if len(l.segs) == 0 {
		if err := l.activate(1); err != nil {
			return nil, nil, err
		}
	} else {
		tail := &l.segs[len(l.segs)-1]
		f, err := opt.FS.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reopen segment: %w", err)
		}
		l.active = f
		l.activeSince = time.Now()
		l.opt.Observer.OnSegments(len(l.segs))
	}
	l.startSyncLoop()
	return l, m.Meta, nil
}

// segmentIndexes lists the segment files in dir, ascending.
func segmentIndexes(fsys FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: unexpected segment file %q", name)
		}
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// openSegment creates the segment with the given index, header written,
// and records it as the newest (l.mu held, or before the log escapes its
// constructor). A file that fails before its header is complete is removed
// again: it holds no record, and a headerless final segment would fail the
// next Open.
func (l *Log) openSegment(index uint64) (File, error) {
	path := filepath.Join(l.dir, segmentName(index))
	f, err := l.opt.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(segmentHeader); err != nil {
		f.Close()
		_ = l.opt.FS.Remove(path)
		return nil, fmt.Errorf("wal: write segment header: %w", err)
	}
	l.segs = append(l.segs, segmentMeta{index: index, path: path, bytes: int64(len(segmentHeader))})
	l.opt.Observer.OnSegments(1)
	return f, nil
}

// activate opens the segment with the given index as the active one.
func (l *Log) activate(index uint64) error {
	f, err := l.openSegment(index)
	if err != nil {
		return err
	}
	l.active, l.activeSince = f, time.Now()
	return nil
}

// startSyncLoop arms the interval-fsync goroutine when the policy wants
// one; otherwise the loop's done channel is closed immediately so Close
// never waits on a goroutine that was never started.
func (l *Log) startSyncLoop() {
	if l.opt.Fsync != FsyncInterval {
		close(l.syncDone)
		return
	}
	go func() {
		defer close(l.syncDone)
		t := time.NewTicker(l.opt.FsyncInterval)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
				_ = l.Sync() // best-effort; Append surfaces real write errors
			}
		}
	}()
}

// Append frames and writes one tick block, rotating and compacting first
// when the active segment is full or stale. Under FsyncAlways the record
// is on disk when Append returns; otherwise it is buffered in the OS until
// the next interval sync, rotation or close. A failed Append leaves no
// trace of the record (see appendOrCut).
func (l *Log) Append(b tsio.TickBlock) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if l.broken != nil {
		return l.broken
	}
	// The record is built in place — header room, then the payload encoded
	// straight behind it — in the buffer the previous append left.
	frame := append(l.frame[:0], make([]byte, recordHeaderSize)...)
	frame = frameRecord(tsio.AppendTickBlock(frame, b))
	if l.frame = frame; cap(frame) > maxKeptFrame {
		l.frame = nil
	}
	tail := &l.segs[len(l.segs)-1]
	if tail.records > 0 &&
		(tail.bytes+int64(len(frame)) > l.opt.SegmentBytes ||
			(l.opt.SegmentAge > 0 && time.Since(l.activeSince) >= l.opt.SegmentAge)) {
		if err := l.rotate(); err != nil {
			return err
		}
		tail = &l.segs[len(l.segs)-1]
	}
	var sync func() error
	if l.opt.Fsync == FsyncAlways {
		sync = l.syncLocked
	}
	l.dirty = true
	broken, err := appendOrCut(l.active, tail.path, tail.bytes, frame, sync)
	if err != nil {
		if broken {
			l.broken = err
		}
		return err
	}
	tail.bytes += int64(len(frame))
	tail.records++
	tail.note(b.T)
	l.appendedRecords++
	l.appendedBytes += int64(len(frame))
	l.opt.Observer.OnAppend(1, len(frame))
	return nil
}

// rotate seals the active segment and opens the next one (l.mu held). The
// sealed file is fsynced first — except under FsyncNever — so sealed
// segments are durable whole-or-not-at-all; then segments wholly past the
// retention horizon are compacted away. The next segment is opened before
// the active one is closed, so a rotation that fails leaves the log
// appending where it was.
func (l *Log) rotate() error {
	if l.opt.Fsync != FsyncNever {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	next, err := l.openSegment(l.segs[len(l.segs)-1].index + 1)
	if err != nil {
		return err
	}
	sealed := l.active
	l.active, l.activeSince, l.dirty = next, time.Now(), false
	l.compactLocked()
	if err := sealed.Close(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	return nil
}

// compactLocked drops sealed segments whose newest tick is older than the
// retention horizon (l.mu held). The active segment never compacts.
func (l *Log) compactLocked() {
	if l.opt.RetainTicks <= 0 {
		return
	}
	newest := l.segs[len(l.segs)-1]
	horizon := model.Tick(0)
	hasHorizon := false
	for i := len(l.segs) - 1; i >= 0; i-- {
		if l.segs[i].hasTick {
			horizon = l.segs[i].last - model.Tick(l.opt.RetainTicks)
			hasHorizon = true
			break
		}
	}
	if !hasHorizon {
		return
	}
	kept := l.segs[:0]
	removed := 0
	for _, seg := range l.segs {
		if seg.index != newest.index && seg.hasTick && seg.last < horizon {
			// Best-effort: a segment that refuses to delete stays counted.
			// A running read may still open it: its file waits for endRead.
			if l.reads > 0 {
				l.doomed = append(l.doomed, seg.path)
			} else if err := l.opt.FS.Remove(seg.path); err != nil {
				kept = append(kept, seg)
				continue
			}
			l.compacted++
			removed++
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	if removed > 0 {
		l.opt.Observer.OnSegments(-removed)
	}
}

// Sync forces buffered appends of the active segment to disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty || l.active == nil {
		return nil
	}
	t0 := time.Now()
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.lastSync = time.Now()
	l.opt.Observer.OnFsync(time.Since(t0))
	return nil
}

// Replay streams every retained tick block through fn in append order —
// the recovery path. fn errors abort the replay and are returned.
func (l *Log) Replay(fn func(tsio.TickBlock) error) error {
	return l.ReadRange(0, 0, false, fn)
}

// ReadRange streams the tick blocks with from ≤ t ≤ to through fn in
// append order, fully decoded — ReadRecords with a materialising decoder.
// With bounded=false the window is ignored and everything is read.
func (l *Log) ReadRange(from, to model.Tick, bounded bool, fn func(tsio.TickBlock) error) error {
	return l.readRecords(from, to, bounded, func(path string, off int64, _ model.Tick, payload []byte) error {
		blk, err := tsio.DecodeTickBlock(payload)
		if err != nil {
			return corruptAt(path, off, err)
		}
		return fn(blk)
	})
}

// ReadRecords is the record-level range read: it streams the records with
// from ≤ t ≤ to through fn in append order as raw CTK payloads (to be
// parsed with tsio.WalkTickBlock or DecodeTickBlock — that parse is the
// payload's validation), touching only segments whose tick range overlaps
// the window. With bounded=false the window is ignored and everything is
// read. Every record of a touched segment is CRC-checked; t comes from the
// payload's checked header; a record outside the window is still walked
// for validity — damage anywhere in a touched segment fails the read — but
// nothing of it is materialised. The payload is a view into the segment's
// read buffer, valid only until fn returns.
//
// Safe to call concurrently with Append: the snapshot taken under the lock
// bounds each segment read to its validated length, a segment compacted
// while the read runs keeps its file until the read ends, and appends are
// visible immediately regardless of the fsync policy (reads go through the
// file system, durability is Sync's concern alone).
func (l *Log) ReadRecords(from, to model.Tick, bounded bool, fn func(t model.Tick, payload []byte) error) error {
	return l.readRecords(from, to, bounded, func(_ string, _ int64, t model.Tick, payload []byte) error {
		return fn(t, payload)
	})
}

// readRecords is ReadRecords with each record's segment path and offset,
// for callers that report payload damage as segment corruption.
func (l *Log) readRecords(from, to model.Tick, bounded bool, fn func(path string, off int64, t model.Tick, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	rs := l.reader
	l.reader = nil
	if rs == nil {
		rs = new(readScratch)
	}
	rs.segs = append(rs.segs[:0], l.segs...)
	l.reads++
	l.mu.Unlock()
	defer l.endRead(rs)
	for _, seg := range rs.segs {
		if seg.records == 0 {
			continue
		}
		if bounded && seg.hasTick && (seg.last < from || seg.first > to) {
			continue
		}
		buf, err := readPrefix(l.opt.FS, seg.path, seg.bytes, rs.buf)
		rs.buf = buf // one read buffer for every segment, and every read
		if err != nil {
			return fmt.Errorf("wal: read segment: %w", err)
		}
		err = walkRecords(seg.path, buf, func(off int64, payload []byte) error {
			t, err := tsio.TickBlockTick(payload)
			outside := err == nil && bounded && (t < from || t > to)
			if outside {
				err = tsio.WalkTickBlock(payload, nil)
			}
			if err != nil {
				return corruptAt(seg.path, off, err)
			}
			if outside {
				return nil
			}
			return fn(seg.path, off, t, payload)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// readScratch is what one range read works in; see Log.reader.
type readScratch struct {
	buf  []byte
	segs []segmentMeta
}

// endRead hands a read's scratch back for the next read — a closed log
// keeps none — and, if no other read is running, removes the segment files
// compaction left for the reads (best-effort: a file that refuses to go is
// an orphan the next Open replays as the oldest segment).
func (l *Log) endRead(rs *readScratch) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.reader = rs
	}
	if l.reads--; l.reads == 0 {
		for _, path := range l.doomed {
			_ = l.opt.FS.Remove(path)
		}
		l.doomed = nil
	}
}

// Status snapshots the log's meters.
func (l *Log) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Status{
		Segments:          len(l.segs),
		AppendedRecords:   l.appendedRecords,
		AppendedBytes:     l.appendedBytes,
		CompactedSegments: l.compacted,
		LastSync:          l.lastSync,
		TruncatedBytes:    l.truncatedBytes,
	}
	for _, seg := range l.segs {
		st.Bytes += seg.bytes
		st.Records += seg.records
		if seg.hasTick {
			if !st.HasTicks {
				st.FirstTick, st.LastTick, st.HasTicks = int64(seg.first), int64(seg.last), true
			} else {
				if int64(seg.first) < st.FirstTick {
					st.FirstTick = int64(seg.first)
				}
				if int64(seg.last) > st.LastTick {
					st.LastTick = int64(seg.last)
				}
			}
		}
	}
	return st
}

// Close syncs and closes the active segment and stops the interval-sync
// goroutine. The files stay on disk; Open resumes them. Safe to call
// twice.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	if cerr := l.active.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close segment: %w", cerr)
	}
	l.closed = true
	l.reader = nil
	l.opt.Observer.OnSegments(-len(l.segs))
	close(l.stop)
	l.mu.Unlock()
	<-l.syncDone
	return err
}

// syncDir fsyncs a directory so a just-renamed or just-created entry
// survives a crash.
func syncDir(fsys FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
