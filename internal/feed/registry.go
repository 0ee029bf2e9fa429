// Package feed is the convoy daemon's live half with no network in it: the
// named-feed registry and the runtime behind each feed — one lock under
// which every operation runs inline on its caller's goroutine, a table of
// standing convoy queries (monitors) sharing one clustering pass per
// distinct key, a ring of closed-convoy events, the write-ahead log (log
// before apply) and the recovery that replays it. A feed starts no
// goroutine; a durable one's log starts its interval-fsync goroutine
// under wal.FsyncInterval. It speaks internal/wire's shapes and links no
// HTTP stack; internal/serve maps requests onto it.
//
// Everything it touches outside memory comes in through Config: the file
// system under the logs (wal.Options.FS; the OS by default) and the clock
// (Config.Now; time.Now by default). A test can therefore drive it with a
// faulty disk and a virtual clock.
package feed

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/url"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Config tunes the runtime. The zero value is usable: NewRegistry fills
// every zero field with its default.
type Config struct {
	// MaxFeeds caps the registered feeds. Default 1024.
	MaxFeeds int
	// MaxMonitorsPerFeed caps the monitors of one feed, the default monitor
	// included. Monitors sharing a clustering key share one pass per tick,
	// but each chains its own candidates. Default 64.
	MaxMonitorsPerFeed int
	// EventBuffer is the per-subscriber event channel depth; a subscriber
	// that falls this far behind is cut off. Default 256.
	EventBuffer int
	// HistoryLimit is the number of closed-convoy events each feed retains
	// for polling and replay. Default 1024.
	HistoryLimit int
	// WALDir, when non-empty, makes feeds durable: each owns a log under
	// WALDir/feeds/<escaped name>, every accepted batch is logged before it
	// is applied, and Recover rebuilds the feeds from their logs.
	WALDir string
	// WAL is every feed log's options; its FS also holds the feed
	// directories.
	WAL wal.Options
	// Observer receives the runtime's meters; nil means none.
	Observer Observer
	// Logger receives feed lifecycle and recovery records; nil discards.
	Logger *slog.Logger
	// Now is the runtime's clock — idle times, ingest latency, recovery
	// time; nil means time.Now. Trace spans keep the wall clock.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxFeeds <= 0 {
		c.MaxFeeds = 1024
	}
	if c.MaxMonitorsPerFeed <= 0 {
		c.MaxMonitorsPerFeed = 64
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	if c.HistoryLimit <= 0 {
		c.HistoryLimit = 1024
	}
	if c.WAL.FS == nil {
		c.WAL.FS = wal.OS
	}
	if c.Observer == nil {
		c.Observer = nopObserver{}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Observer receives the runtime's meters. The serving layer implements it
// over its metrics registry, so this package stays metrics-free, as
// wal.Observer keeps the log. Calls arrive from every feed concurrently.
type Observer interface {
	// OnTick reports one applied tick batch.
	OnTick(TickMeters)
	// OnIngest reports one ingest call's wall time, lock wait included.
	OnIngest(time.Duration)
	// OnEvent reports one closed-convoy event emitted.
	OnEvent()
	// OnMonitors reports a change in the number of registered monitors.
	OnMonitors(delta int)
	// OnFeeds reports feeds created, deleted and evicted.
	OnFeeds(created, deleted, evicted int)
	// OnRecovered reports one feed rebuilt from its log.
	OnRecovered(wire.WALRecoveryJSON)
	// OnRecoveryDone reports the wall time of one Recover.
	OnRecoveryDone(time.Duration)
}

// TickMeters is the work of one applied tick batch.
type TickMeters struct {
	// Positions is the batch's position count.
	Positions int
	// Passes ran, one per distinct clustering key; NaivePasses is what one
	// engine per monitor would have run.
	Passes, NaivePasses int
	// Full and Incremental split Passes by how each was answered.
	Full, Incremental int
	// Reclustered objects had their neighbourhoods recomputed, of Seen
	// pushed through clustering.
	Reclustered, Seen int
}

type nopObserver struct{}

func (nopObserver) OnTick(TickMeters)                {}
func (nopObserver) OnIngest(time.Duration)           {}
func (nopObserver) OnEvent()                         {}
func (nopObserver) OnMonitors(int)                   {}
func (nopObserver) OnFeeds(int, int, int)            {}
func (nopObserver) OnRecovered(wire.WALRecoveryJSON) {}
func (nopObserver) OnRecoveryDone(time.Duration)     {}

// Registry and monitor-table errors; the HTTP layer maps them to statuses.
var (
	ErrNoFeed          = errors.New("feed: no such feed")
	ErrFeedExists      = errors.New("feed: feed already exists")
	ErrTooManyFeeds    = errors.New("feed: feed limit reached")
	ErrNoMonitor       = errors.New("feed: no such monitor")
	ErrMonitorExists   = errors.New("feed: monitor already exists")
	ErrTooManyMonitors = errors.New("feed: monitor limit reached")
	ErrClosing         = errors.New("feed: registry shutting down")
	ErrFeedClosed      = errors.New("feed: feed closed")
	ErrNoWAL           = errors.New("feed: feed is not durable (no WAL directory configured)")
)

// InvalidError marks an error as the caller's mistake — a bad spec, a
// malformed tick — rather than the runtime's. The message passes through
// untouched.
type InvalidError struct{ err error }

func (e *InvalidError) Error() string { return e.err.Error() }
func (e *InvalidError) Unwrap() error { return e.err }

// Invalid wraps err as the caller's mistake.
func Invalid(err error) error { return &InvalidError{err} }

// Registry is the named-feed table. It guards only the map — every
// per-feed operation takes the feed's own lock — so its critical sections
// are tiny and never wait on feed work.
type Registry struct {
	cfg Config

	mu     sync.Mutex
	feeds  map[string]*Feed
	closed bool
}

// NewRegistry builds an empty registry; Recover fills it from cfg.WALDir.
func NewRegistry(cfg Config) *Registry {
	return &Registry{cfg: cfg.withDefaults(), feeds: make(map[string]*Feed)}
}

// feedsDirName is the subdirectory of Config.WALDir holding the feed logs.
const feedsDirName = "feeds"

// LogDir is the directory of one feed's log under a WAL root. The name is
// URL-escaped: feed names may hold any non-path byte, file systems are
// pickier. Only a ValidName stays inside walRoot/feeds.
func LogDir(walRoot, name string) string {
	return filepath.Join(walRoot, feedsDirName, url.PathEscape(name))
}

// ValidName reports whether a client-chosen name — a feed name, a monitor
// ID — can name a resource: a URL path segment and, for a feed, the last
// element of its LogDir. HTTP path cleaning drops "." and "..", and
// escaping leaves them as they are, so ".." would put a feed's log (and its
// removal) at the WAL root; "" would be the directory of every feed's log.
func ValidName(s string) bool {
	return s != "" && s != "." && s != ".." && !strings.ContainsAny(s, "/ \t\n")
}

// Create registers a new feed under the name, with p as its default
// monitor's parameters. On a durable registry the feed's log is initialised
// first, so a feed that exists in memory always has a manifest on disk.
func (r *Registry) Create(name string, p core.Params) (*Feed, error) {
	if !ValidName(name) {
		return nil, Invalid(fmt.Errorf("feed: invalid feed name %q", name))
	}
	if err := p.Validate(); err != nil {
		return nil, Invalid(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosing
	}
	if _, ok := r.feeds[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrFeedExists, name)
	}
	if len(r.feeds) >= r.cfg.MaxFeeds {
		return nil, fmt.Errorf("%w (%d)", ErrTooManyFeeds, r.cfg.MaxFeeds)
	}
	var (
		w   *durable
		dir string
		err error
	)
	if r.cfg.WALDir != "" {
		dir = LogDir(r.cfg.WALDir, name)
		if wal.Exists(dir, r.cfg.WAL) {
			// An idle-evicted durable feed left its log behind. Re-creating
			// the name would fork its history; the client deletes the feed
			// (removing the log) or restarts the server (resurrecting it).
			return nil, fmt.Errorf("%w: %q (log on disk from an evicted feed; DELETE it or restart to recover)", ErrFeedExists, name)
		}
		w, err = createLog(r.cfg, name, wire.ParamsToJSON(p))
	}
	var f *Feed
	if err == nil {
		f, err = build(name, p, r.cfg, w)
	}
	if err != nil {
		if w != nil {
			_ = w.close()
		}
		if dir != "" {
			// A feed the caller is told was not created leaves no log: a
			// manifest would hold the name against a retry and resurrect
			// the feed on restart. dir is this name's own directory (the
			// name is valid), and it held no log before this call.
			_ = r.cfg.WAL.FS.RemoveAll(dir)
		}
		return nil, err
	}
	r.feeds[name] = f
	r.cfg.Observer.OnFeeds(1, 0, 0)
	return f, nil
}

// Count reports the number of registered feeds.
func (r *Registry) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.feeds)
}

// Get looks a feed up by name.
func (r *Registry) Get(name string) (*Feed, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.feeds[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoFeed, name)
	}
	return f, nil
}

// Remove unregisters and drains a feed, and deletes its log. The drain
// deliberately ignores ctx: once the feed is out of the map nobody else can
// close it, so a caller that goes away mid-removal must not leave an
// undrained feed (which would also leave the monitor count counting its
// table forever).
func (r *Registry) Remove(_ context.Context, name string) (wire.FeedCloseResponse, error) {
	r.mu.Lock()
	f, ok := r.feeds[name]
	if ok {
		delete(r.feeds, name)
	}
	r.mu.Unlock()
	if !ok {
		if r.cfg.WALDir != "" && ValidName(name) {
			if dir := LogDir(r.cfg.WALDir, name); wal.Exists(dir, r.cfg.WAL) {
				// An idle-evicted durable feed: drained, but its log is on
				// disk. Removal still means "forget the feed", so the
				// directory goes; there is nothing left to drain.
				if err := r.cfg.WAL.FS.RemoveAll(dir); err != nil {
					return wire.FeedCloseResponse{}, fmt.Errorf("feed: remove feed wal: %w", err)
				}
				r.cfg.Observer.OnFeeds(0, 1, 0)
				return wire.FeedCloseResponse{Drained: []wire.ConvoyJSON{}}, nil
			}
		}
		return wire.FeedCloseResponse{}, fmt.Errorf("%w: %q", ErrNoFeed, name)
	}
	r.cfg.Observer.OnFeeds(0, 1, 0)
	resp, err := f.close()
	if f.w != nil {
		// The drain released the file handles; removal also forgets the
		// history (idle eviction keeps it, so a restart resurrects the feed).
		if rerr := r.cfg.WAL.FS.RemoveAll(LogDir(r.cfg.WALDir, name)); rerr != nil && err == nil {
			err = fmt.Errorf("feed: remove feed wal: %w", rerr)
		}
	}
	return resp, err
}

// List snapshots the registered feeds, name-sorted.
func (r *Registry) List() []*Feed {
	r.mu.Lock()
	out := make([]*Feed, 0, len(r.feeds))
	for _, f := range r.feeds {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// EvictIdle drains every feed idle since before the cutoff and returns how
// many were evicted. A durable feed's log stays on disk.
func (r *Registry) EvictIdle(cutoff time.Time) int {
	r.mu.Lock()
	var victims []*Feed
	for name, f := range r.feeds {
		if f.IdleSince().Before(cutoff) {
			victims = append(victims, f)
			delete(r.feeds, name)
		}
	}
	r.mu.Unlock()
	for _, f := range victims {
		_, _ = f.close() // eviction drain is best-effort
	}
	r.cfg.Observer.OnFeeds(0, 0, len(victims))
	return len(victims)
}

// CloseAll marks the registry closed and drains every feed — the graceful
// shutdown path, flushing open candidates as final events.
func (r *Registry) CloseAll() {
	r.mu.Lock()
	r.closed = true
	victims := make([]*Feed, 0, len(r.feeds))
	for name, f := range r.feeds {
		victims = append(victims, f)
		delete(r.feeds, name)
	}
	r.mu.Unlock()
	for _, f := range victims {
		_, _ = f.close() // shutdown drain is best-effort
	}
}
