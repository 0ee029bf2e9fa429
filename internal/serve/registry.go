package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
	"repro/internal/wire"
)

// registry is the named-feed table. It guards only the map — every
// per-feed operation goes through the feed's own mailbox — so registry
// critical sections are tiny and never wait on streamer work.
type registry struct {
	cfg Config

	mu     sync.Mutex
	feeds  map[string]*feed
	closed bool
}

// Registry and monitor-table errors, mapped to HTTP statuses by the
// handlers.
var (
	errNoFeed          = errors.New("serve: no such feed")
	errFeedExists      = errors.New("serve: feed already exists")
	errTooManyFeeds    = errors.New("serve: feed limit reached")
	errNoMonitor       = errors.New("serve: no such monitor")
	errMonitorExists   = errors.New("serve: monitor already exists")
	errTooManyMonitors = errors.New("serve: monitor limit reached")
	errServerClosing   = errors.New("serve: server shutting down")
	errNoWAL           = errors.New("serve: feed is not durable (server started without a data dir)")
)

// badRequestError marks an error as the client's fault (400). Wrap with
// badRequest at the point where the mistake is recognized; the message is
// passed through untouched.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func badRequest(err error) error { return &badRequestError{err} }

func newRegistry(cfg Config) *registry {
	return &registry{cfg: cfg, feeds: make(map[string]*feed)}
}

// create registers a new feed under the name, with the given clustering
// backend for its default monitor ("" = dbscan). On a durable server the
// feed's WAL directory is initialised first, so a feed that exists in
// memory always has a manifest on disk.
func (r *registry) create(name string, p core.Params, clusterer string) (*feed, error) {
	if err := p.Validate(); err != nil {
		return nil, badRequest(err)
	}
	cl, err := wire.ParseClusterer(clusterer)
	if err != nil {
		return nil, badRequest(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errServerClosing
	}
	if _, ok := r.feeds[name]; ok {
		return nil, fmt.Errorf("%w: %q", errFeedExists, name)
	}
	if len(r.feeds) >= r.cfg.MaxFeeds {
		return nil, fmt.Errorf("%w (%d)", errTooManyFeeds, r.cfg.MaxFeeds)
	}
	var w *feedWAL
	if r.cfg.WALDir != "" {
		dir := feedWALDir(r.cfg.WALDir, name)
		if wal.Exists(dir) {
			// An idle-evicted durable feed left its log behind. Re-creating
			// the name would fork its history; the client DELETEs the feed
			// (removing the log) or restarts the server (resurrecting it).
			return nil, fmt.Errorf("%w: %q (log on disk from an evicted feed; DELETE it or restart to recover)", errFeedExists, name)
		}
		if w, err = createFeedWAL(r.cfg, name, wire.ParamsToJSON(p), cl.Name()); err != nil {
			return nil, err
		}
	}
	f, err := newFeed(name, p, cl, r.cfg, w)
	if err != nil {
		if w != nil {
			_ = w.close()
			_ = os.RemoveAll(feedWALDir(r.cfg.WALDir, name))
		}
		return nil, err
	}
	r.feeds[name] = f
	r.cfg.metrics.feedsCreated.Inc()
	return f, nil
}

// count reports the number of registered feeds (read by the feeds gauge
// and the stats snapshot).
func (r *registry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.feeds)
}

// get looks a feed up by name.
func (r *registry) get(name string) (*feed, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.feeds[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", errNoFeed, name)
	}
	return f, nil
}

// remove unregisters and drains a feed; the close happens outside the
// lock. The drain deliberately ignores the request context: once the
// feed is out of the map nobody else can close it, so a client that
// disconnects mid-DELETE must not orphan an undrained worker (which
// would also leave the monitor gauge counting its table forever).
func (r *registry) remove(_ context.Context, name string) (FeedCloseResponse, error) {
	r.mu.Lock()
	f, ok := r.feeds[name]
	if ok {
		delete(r.feeds, name)
	}
	r.mu.Unlock()
	if !ok {
		if r.cfg.WALDir != "" {
			if dir := feedWALDir(r.cfg.WALDir, name); wal.Exists(dir) {
				// An idle-evicted durable feed: its worker is gone but its
				// log is not. DELETE still means "forget the feed", so the
				// directory goes; there is nothing left to drain.
				if err := os.RemoveAll(dir); err != nil {
					return FeedCloseResponse{}, fmt.Errorf("serve: remove feed wal: %w", err)
				}
				r.cfg.metrics.feedsDeleted.Inc()
				return FeedCloseResponse{Drained: []ConvoyJSON{}}, nil
			}
		}
		return FeedCloseResponse{}, fmt.Errorf("%w: %q", errNoFeed, name)
	}
	r.cfg.metrics.feedsDeleted.Inc()
	resp, err := f.close(context.Background())
	if f.w != nil {
		// The drain released the file handles; DELETE also forgets the
		// history (idle eviction keeps it, so a restart resurrects the feed).
		if rerr := os.RemoveAll(feedWALDir(r.cfg.WALDir, name)); rerr != nil && err == nil {
			err = fmt.Errorf("serve: remove feed wal: %w", rerr)
		}
	}
	return resp, err
}

// list snapshots the registered feeds, name-sorted.
func (r *registry) list() []*feed {
	r.mu.Lock()
	out := make([]*feed, 0, len(r.feeds))
	for _, f := range r.feeds {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// evictIdle drains every feed idle since before the cutoff and returns how
// many were evicted.
func (r *registry) evictIdle(cutoff time.Time) int {
	r.mu.Lock()
	var victims []*feed
	for name, f := range r.feeds {
		if f.idleSince().Before(cutoff) {
			victims = append(victims, f)
			delete(r.feeds, name)
		}
	}
	r.mu.Unlock()
	for _, f := range victims {
		_, _ = f.close(context.Background()) // eviction drain is best-effort
	}
	r.cfg.metrics.feedsEvicted.Add(float64(len(victims)))
	return len(victims)
}

// closeAll marks the registry closed and drains every feed — the graceful
// shutdown path, flushing open candidates through Streamer.Close.
func (r *registry) closeAll() {
	r.mu.Lock()
	r.closed = true
	victims := make([]*feed, 0, len(r.feeds))
	for name, f := range r.feeds {
		victims = append(victims, f)
		delete(r.feeds, name)
	}
	r.mu.Unlock()
	for _, f := range victims {
		_, _ = f.close(context.Background()) // shutdown drain is best-effort
	}
}
