// Package wal is the durability layer under convoyd's feeds: a per-feed
// append-only log of accepted tick batches (the positions of one tick
// each), written before the batch is applied, so a restarted daemon can
// replay itself back to the exact state of one that never crashed.
//
// One feed owns one directory:
//
//	MANIFEST            creation record: format version + opaque feed spec
//	00000001.wal …      tick segments: CRC-framed CTK tick blocks
//	spec.jnl            spec journal: CRC-framed dynamic-spec operations
//
// Tick segments hold the payload stream — one record per accepted batch,
// each framed as (length, CRC-32C, payload) — and rotate by size and age.
// Segments wholly past a retention horizon are compacted away. The spec
// journal is the tiny, never-compacted side channel for dynamic feed
// specification changes (monitor add/remove, knob flips): entries are
// opaque to this package and always fsynced, so registration survives a
// crash under any tick fsync policy.
//
// An append that fails — a short write, an fsync error — is cut back off
// the file before Append returns its error: the caller refuses the batch,
// so neither recovery nor a history read may ever see it. A log that
// cannot cut a refused record back refuses every later append instead.
//
// Recovery truncates a torn tail — a partially written final record, the
// signature of a crash mid-append — and replays the remaining records in
// order. Damage anywhere before the tail is reported as corruption instead:
// appends are sequential, so a bad record mid-history cannot be a crash
// artifact and must not be silently dropped.
package wal

import (
	"fmt"
	"strings"
	"time"
)

// FsyncPolicy says when appended tick records are forced to stable
// storage. The zero value is FsyncAlways: durability is the default, speed
// is the opt-in.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: an acknowledged batch is on
	// disk. The slowest and the only policy under which recovery is exact
	// after a power loss, not just a process kill.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a timer (Options.FsyncInterval) and on
	// rotation and close; a crash loses at most the last interval's
	// acknowledged batches.
	FsyncInterval
	// FsyncNever leaves syncing to the OS page cache (still synced once on
	// clean close). Fastest; a crash can lose everything the OS had not
	// written back.
	FsyncNever
)

// String returns the policy's knob spelling (convoyd -wal-fsync).
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy resolves a policy name ("" defaults to always).
func ParseFsyncPolicy(name string) (FsyncPolicy, error) {
	switch strings.ToLower(name) {
	case "", "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", name)
	}
}

// Options tunes one feed's log. The zero value is usable: every field has
// a sensible default applied at open.
type Options struct {
	// SegmentBytes rotates the active segment once it would exceed this
	// size (a single oversized record still lands whole in its own
	// segment). Default 4 MiB.
	SegmentBytes int64
	// SegmentAge rotates the active segment once it has been open this
	// long, so retention horizons expressed in wall time keep moving even
	// on slow feeds. 0 disables age rotation.
	SegmentAge time.Duration
	// Fsync is the tick-record durability policy; see FsyncPolicy. The
	// spec journal ignores it and always syncs.
	Fsync FsyncPolicy
	// FsyncInterval is the timer period under FsyncInterval. Default 100ms.
	FsyncInterval time.Duration
	// RetainTicks, when > 0, is the retention horizon: after a rotation,
	// sealed segments whose newest tick is older than lastTick−RetainTicks
	// are deleted. Bounds disk *and* what recovery and historical queries
	// can see — convoys longer than the horizon recover truncated. 0
	// retains everything (the default: recovery is exact).
	RetainTicks int64
	// Observer receives append/fsync/segment meters; nil means none.
	Observer Observer
	// FS is the file system the log and its spec journal live on; nil
	// means OS.
	FS FS
}

// withDefaults returns the options with zero fields replaced by defaults.
func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.Observer == nil {
		o.Observer = nopObserver{}
	}
	if o.FS == nil {
		o.FS = OS
	}
	return o
}

// Observer receives the log's meters. Implemented by the serving layer
// over its metrics registry; the wal package itself stays metrics-free.
// Callbacks may arrive from the log's interval-sync goroutine and must be
// safe for concurrent use.
type Observer interface {
	// OnAppend reports one appended record and its framed size in bytes.
	OnAppend(records, bytes int)
	// OnFsync reports one fsync of the active segment and its duration.
	OnFsync(d time.Duration)
	// OnSegments reports segment-count changes of open logs: +n for
	// created or opened segments, −n for compacted ones and for segments
	// released by Close.
	OnSegments(delta int)
}

type nopObserver struct{}

func (nopObserver) OnAppend(int, int)     {}
func (nopObserver) OnFsync(time.Duration) {}
func (nopObserver) OnSegments(int)        {}

// Status is a point-in-time snapshot of one log (GET /v1/feeds/{name}/wal).
type Status struct {
	// Segments, Bytes and Records describe what the log currently holds
	// (compacted segments excluded).
	Segments int
	Bytes    int64
	Records  int64
	// FirstTick and LastTick delimit the retained tick range; HasTicks is
	// false while the log is empty.
	FirstTick, LastTick int64
	HasTicks            bool
	// AppendedRecords and AppendedBytes count appends since this process
	// opened the log.
	AppendedRecords int64
	AppendedBytes   int64
	// CompactedSegments counts segments dropped past the retention horizon
	// since open.
	CompactedSegments int64
	// LastSync is the time of the last fsync of the active segment (zero
	// before the first).
	LastSync time.Time
	// TruncatedBytes is the torn tail dropped when this process opened the
	// log — 0 after a clean shutdown, > 0 when a crash cut a record short.
	TruncatedBytes int64
}
