package feed

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/tsio"
	"repro/internal/wire"
)

// A Feed is one live position stream behind one lock. It hosts a *table of
// monitors* — standing convoy queries, each a core.Monitor with its own
// (m, k, e), added and removed at runtime — over the single ingested
// stream. Per tick it runs one DBSCAN pass per *distinct* ClusterKey (e, m)
// among the live monitors and fans the clusters out to every monitor in the
// group, so N monitors sharing a key cost one clustering pass, not N.
//
// All feed state — the monitor table, the label→ID mapping, the event
// history, the subscriber set — is touched only by the caller holding the
// feed's lock, so a feed's operations run one at a time, each inline on its
// caller's goroutine. Waiting for the lock is the ingestion backpressure.

// DefaultMonitorID names the monitor created implicitly from the feed's
// creation parameters.
const DefaultMonitorID = "default"

// monitor is one entry of the monitor table: a standing convoy query over
// the feed's stream.
type monitor struct {
	id string
	// p is the monitor's query; p.ClusterKey() is the identity it shares a
	// ClusterSource under.
	p      core.Params
	mon    *core.Monitor
	closed uint64 // events this monitor has emitted
}

// Feed is one registered feed. Its methods are safe for concurrent use and
// run one at a time; a caller whose context ends while it waits for the
// feed returns ctx.Err(), and nothing of its operation runs.
type Feed struct {
	name string
	p    core.Params // creation params (the default monitor's)
	cfg  Config

	// lock is held by the one operation running on the feed: a one-slot
	// channel, full while held, so a waiter can give up when its context
	// ends. Waiters take it in arrival order.
	lock chan struct{}
	// lastActive is the unix-nano time of the last request, read by the
	// idle-eviction janitor.
	lastActive atomic.Int64

	// State below is touched only under lock (or before the feed is
	// registered).
	monitors map[string]*monitor
	// order holds the live monitors sorted by ID — maintained on
	// add/remove so the per-tick fan-out and the status/drain paths walk a
	// deterministic order without re-sorting in the ingestion hot path.
	order []*monitor
	// sources holds one ClusterSource per distinct ClusterKey among the
	// live monitors; entries are dropped when their last monitor goes.
	sources map[core.ClusterKey]*core.ClusterSource
	// clusterPasses counts snapshot clustering passes over the feed's whole
	// life (sources come and go with their monitors; this does not). The
	// three meters after it split that work: full vs incremental passes,
	// and the objects actually re-clustered (objectsSeen is the
	// denominator of the feed's reuse ratio).
	clusterPasses int64
	passesFull    int64
	passesInc     int64
	reclustered   int64
	objectsSeen   int64
	lastTick      model.Tick
	started       bool
	ids           map[string]model.ObjectID // label → dense ID
	labels        []string                  // dense ID → label
	ticks         int64                     // ingested tick batches
	// seenIn and batchGen are applyBatch's duplicate-ID check: seenIn[id]
	// == batchGen marks an ID already present in the batch being validated.
	seenIn   []uint64
	batchGen uint64

	// history is a ring of the last cfg.HistoryLimit events: once full, the
	// event numbered seq lives at seq % HistoryLimit.
	history []wire.Event
	nextSeq uint64 // seq of the next event to emit
	subs    map[chan wire.Event]struct{}
	closed  bool // set by close: later operations fail with ErrFeedClosed

	// w is the feed's write-ahead log bundle; nil for in-memory feeds
	// (Config.WALDir unset). recovering is true only during recovery's
	// replay, when applyBatch must not re-log what it reads from the log.
	w          *durable
	recovering bool
}

// build assembles an unregistered feed with its default monitor; recovery
// replays into it before it is registered.
func build(name string, p core.Params, cfg Config, w *durable) (*Feed, error) {
	f := &Feed{
		name:     name,
		p:        p,
		cfg:      cfg,
		lock:     make(chan struct{}, 1),
		monitors: make(map[string]*monitor),
		sources:  make(map[core.ClusterKey]*core.ClusterSource),
		ids:      make(map[string]model.ObjectID),
		subs:     make(map[chan wire.Event]struct{}),
		w:        w,
	}
	// Nobody else can reach the feed yet, so the table is safe to touch.
	if err := f.insertMonitor(DefaultMonitorID, p); err != nil {
		return nil, err
	}
	f.touch()
	return f, nil
}

// insertMonitor adds a monitor to the table and ensures a cluster source
// for its key exists (lock held, or before the feed is registered).
func (f *Feed) insertMonitor(id string, p core.Params) error {
	if _, ok := f.monitors[id]; ok {
		return fmt.Errorf("%w: %q", ErrMonitorExists, id)
	}
	if len(f.monitors) >= f.cfg.MaxMonitorsPerFeed {
		return fmt.Errorf("%w (%d)", ErrTooManyMonitors, f.cfg.MaxMonitorsPerFeed)
	}
	mon, err := core.NewMonitor(p)
	if err != nil {
		return Invalid(err)
	}
	key := p.ClusterKey()
	if _, ok := f.sources[key]; !ok {
		src, err := core.NewClusterSource(key)
		if err != nil {
			return Invalid(err)
		}
		f.sources[key] = src
	}
	fm := &monitor{id: id, p: p, mon: mon}
	f.monitors[id] = fm
	f.cfg.Observer.OnMonitors(1)
	at := sort.Search(len(f.order), func(i int) bool { return f.order[i].id >= id })
	f.order = append(f.order, nil)
	copy(f.order[at+1:], f.order[at:])
	f.order[at] = fm
	return nil
}

// touch marks the feed active for the idle-eviction janitor. Ingestion
// and event consumption touch; pure status reads do not, so monitoring
// dashboards polling statuses cannot keep an abandoned feed alive.
func (f *Feed) touch() { f.lastActive.Store(f.cfg.Now().UnixNano()) }

// IdleSince reports the time of the feed's last touching request.
func (f *Feed) IdleSince() time.Time { return time.Unix(0, f.lastActive.Load()) }

// acquire takes the feed's lock; the caller releases it. A caller whose
// ctx ends while it waits returns ctx.Err(), and nothing of its operation
// runs. On a closed feed it fails with ErrFeedClosed.
func (f *Feed) acquire(ctx context.Context) error {
	select {
	case f.lock <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	if f.closed {
		f.release()
		return ErrFeedClosed
	}
	return nil
}

func (f *Feed) release() { <-f.lock }

// emit appends one closed convoy to the history ring, tagged with the
// monitor that closed it, fans it out to subscribers and returns the event.
// A subscriber whose buffer is full is cut off (its channel closed); it can
// reconnect and replay with a since cursor.
func (f *Feed) emit(monitorID string, c core.Convoy) wire.Event {
	ev := wire.Event{
		Seq:     f.nextSeq,
		Feed:    f.name,
		Monitor: monitorID,
		Convoy: wire.ConvoyToJSON(c, func(id model.ObjectID) string {
			if id >= 0 && int(id) < len(f.labels) {
				return f.labels[id]
			}
			return ""
		}),
	}
	f.nextSeq++
	f.cfg.Observer.OnEvent()
	if len(f.history) < f.cfg.HistoryLimit {
		f.history = append(f.history, ev)
	} else {
		f.history[ev.Seq%uint64(len(f.history))] = ev
	}
	for ch := range f.subs {
		select {
		case ch <- ev:
		default:
			delete(f.subs, ch)
			close(ch)
		}
	}
	return ev
}

// drainMonitor closes one monitor, emits its still-open convoys as tagged
// events, and returns their wire forms (lock held).
func (f *Feed) drainMonitor(fm *monitor) []wire.ConvoyJSON {
	out := []wire.ConvoyJSON{}
	for _, c := range fm.mon.Close() {
		out = append(out, f.emit(fm.id, c).Convoy)
		fm.closed++
	}
	return out
}

// Ingest applies tick batches in order and returns the closed convoys.
// The first bad tick aborts the batch; everything before it sticks (the
// response reports how many were accepted). Per batch, each distinct
// clustering key among the live monitors runs exactly one clustering pass;
// the clusters fan out to every monitor in that key's group. On a sampled
// request, ctx's span collects the batches' wal_append_ms, cluster_ms and
// chain_ms. A caller whose ctx ends while it waits for the feed gets
// ctx.Err() and no batch of it is applied.
func (f *Feed) Ingest(ctx context.Context, batches []wire.TickBatch) (wire.TicksResponse, error) {
	f.touch()
	// Wall time includes the wait for the lock: the histogram is the feed's
	// backpressure lag as a client experiences it.
	t0 := f.cfg.Now()
	defer func() { f.cfg.Observer.OnIngest(f.cfg.Now().Sub(t0)) }()
	sp := trace.FromContext(ctx)
	if err := f.acquire(ctx); err != nil {
		return wire.TicksResponse{}, err
	}
	defer f.release()
	resp := wire.TicksResponse{Closed: []wire.ConvoyJSON{}}
	for _, b := range batches {
		closed, err := f.applyBatch(b, sp)
		resp.Closed = append(resp.Closed, closed...)
		if err != nil {
			return resp, err
		}
		resp.Accepted++
	}
	return resp, nil
}

// applyBatch validates and applies one tick batch (lock held, or during
// recovery's replay). On a durable feed the batch is logged after
// validation and *before* any monitor advances — the write-ahead contract:
// an acknowledged batch is re-applied by recovery, a refused one leaves no
// trace on disk (wal.Log.Append cuts a failed record back) or in memory.
// Returns the convoys the batch closed. sp, the sampled request's
// span (nil otherwise, and in recovery), accumulates where the batch's
// time went as wal_append_ms, cluster_ms and chain_ms.
func (f *Feed) applyBatch(b wire.TickBatch, sp *trace.Span) ([]wire.ConvoyJSON, error) {
	ids := make([]model.ObjectID, len(b.Positions))
	pts := make([]geom.Point, len(b.Positions))
	// Labels interned for this batch are rolled back if any validation
	// below rejects it, so rejected batches never grow the feed's label
	// table.
	base := len(f.labels)
	rollback := func() {
		for _, label := range f.labels[base:] {
			delete(f.ids, label)
		}
		f.labels = f.labels[:base]
	}
	reject := func(err error) error {
		rollback()
		return Invalid(err)
	}
	for i, pos := range b.Positions {
		if pos.ID == "" {
			return nil, reject(fmt.Errorf("tick %d: position %d has empty id", b.T, i))
		}
		if !geom.Finite(pos.X) || !geom.Finite(pos.Y) {
			// NaN/Inf poisons distance math and could panic the
			// clustering grid; the wire must never hand a monitor
			// non-finite geometry.
			return nil, reject(fmt.Errorf("tick %d: position %q has non-finite coordinates (%g, %g)", b.T, pos.ID, pos.X, pos.Y))
		}
		ids[i] = f.intern(pos.ID)
		pts[i] = geom.Pt(pos.X, pos.Y)
	}
	if dup, ok := f.firstDuplicate(ids); ok {
		// A repeated ID would cluster with itself and fake a convoy
		// out of one real object (the check core.FirstDuplicateID
		// makes for the Streamer).
		label := f.labels[dup]
		return nil, reject(fmt.Errorf("tick %d: duplicate id %q", b.T, label))
	}
	if f.started && b.T <= f.lastTick {
		// Tick monotonicity is a feed-level invariant: it must fail
		// before any monitor advances, or the table would desync.
		return nil, reject(fmt.Errorf("tick %d not after %d", b.T, f.lastTick))
	}
	if f.w != nil && !f.recovering {
		// Log-before-apply. A batch the log refuses is rolled back whole —
		// the feed must never hold state its recovery cannot reproduce.
		t0 := stageStart(sp)
		err := f.w.log.Append(tickBlock(b))
		stageEnd(sp, "wal_append_ms", t0)
		if err != nil {
			rollback()
			return nil, fmt.Errorf("feed: wal append: %w", err)
		}
	}
	// One clustering pass per distinct (e, m) among live monitors.
	snap := core.TickSnapshot{T: b.T, IDs: ids, Pts: pts}
	clusters := make(map[core.ClusterKey][][]model.ObjectID, len(f.sources))
	m := TickMeters{
		Positions:   len(b.Positions),
		Passes:      len(f.sources),
		NaivePasses: len(f.order),
		Seen:        len(ids) * len(f.sources),
	}
	t0 := stageStart(sp)
	for key, src := range f.sources {
		clusters[key] = src.Cluster(snap)
		inc, recl := src.LastPass()
		if inc {
			m.Incremental++
		} else {
			m.Full++
		}
		m.Reclustered += recl
	}
	stageEnd(sp, "cluster_ms", t0)
	f.clusterPasses += int64(m.Passes)
	f.passesFull += int64(m.Full)
	f.passesInc += int64(m.Incremental)
	f.reclustered += int64(m.Reclustered)
	f.objectsSeen += int64(m.Seen)
	var out []wire.ConvoyJSON
	t0 = stageStart(sp)
	for _, fm := range f.order {
		closed, err := fm.mon.AdvanceClusters(b.T, clusters[fm.p.ClusterKey()])
		if err != nil {
			// Unreachable after the feed-level tick check; surface
			// as an internal error rather than corrupting the table.
			return out, fmt.Errorf("feed: monitor %q: %w", fm.id, err)
		}
		for _, c := range closed {
			out = append(out, f.emit(fm.id, c).Convoy)
			fm.closed++
		}
	}
	stageEnd(sp, "chain_ms", t0)
	f.lastTick, f.started = b.T, true
	f.ticks++
	f.cfg.Observer.OnTick(m)
	return out, nil
}

// intern returns the dense ID of a label, assigning the next one to a label
// the feed has not seen (lock held). A new label is cloned: a decoded
// batch's labels are substrings of its request body, which the label table
// must not keep alive.
func (f *Feed) intern(label string) model.ObjectID {
	id, ok := f.ids[label]
	if !ok {
		label = strings.Clone(label)
		id = len(f.labels)
		f.ids[label] = id
		f.labels = append(f.labels, label)
	}
	return id
}

// firstDuplicate reports the first repeated ID of a batch — the ID
// core.FirstDuplicateID reports — without its set (lock held). The IDs
// are interned, so dense: a stamp per label does, whatever order the batch
// lists them in.
func (f *Feed) firstDuplicate(ids []model.ObjectID) (model.ObjectID, bool) {
	if n := len(f.labels); len(f.seenIn) < n {
		f.seenIn = append(f.seenIn, make([]uint64, n-len(f.seenIn))...)
	}
	f.batchGen++
	for _, id := range ids {
		if f.seenIn[id] == f.batchGen {
			return id, true
		}
		f.seenIn[id] = f.batchGen
	}
	return 0, false
}

// stageStart and stageEnd time one stage of an applied batch into an
// attribute of the request's span, accumulating across the batches of one
// request. Without a span — the unsampled request — neither reads the
// clock.
func stageStart(sp *trace.Span) time.Time {
	if sp == nil {
		return time.Time{}
	}
	return time.Now()
}

func stageEnd(sp *trace.Span, key string, t0 time.Time) {
	if sp != nil {
		sp.AddFloat(key, msFloat(time.Since(t0)))
	}
}

// msFloat renders a duration as float milliseconds, the wire's *_ms unit.
func msFloat(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tickBlock converts a validated wire batch to its persisted form.
func tickBlock(b wire.TickBatch) tsio.TickBlock {
	blk := tsio.TickBlock{T: b.T}
	if len(b.Positions) > 0 {
		blk.Positions = make([]tsio.TickPosition, len(b.Positions))
		for i, p := range b.Positions {
			blk.Positions[i] = tsio.TickPosition{Label: p.ID, X: p.X, Y: p.Y}
		}
	}
	return blk
}

// tickBatch converts a persisted block back to the wire form applyBatch
// consumes.
func tickBatch(blk tsio.TickBlock) wire.TickBatch {
	b := wire.TickBatch{T: blk.T}
	if len(blk.Positions) > 0 {
		b.Positions = make([]wire.Position, len(blk.Positions))
		for i, p := range blk.Positions {
			b.Positions[i] = wire.Position{ID: p.Label, X: p.X, Y: p.Y}
		}
	}
	return b
}

// monitorStatus snapshots one monitor's counters (lock held).
func (f *Feed) monitorStatus(fm *monitor) wire.MonitorStatus {
	st := wire.MonitorStatus{
		ID:     fm.id,
		Feed:   f.name,
		Params: wire.ParamsToJSON(fm.p),
		Live:   fm.mon.Live(),
		Closed: fm.closed,
	}
	if t, ok := fm.mon.LastTick(); ok {
		st.LastTick = &t
	}
	return st
}

// Status snapshots the feed counters, including the monitor table.
func (f *Feed) Status(ctx context.Context) (wire.FeedStatus, error) {
	if err := f.acquire(ctx); err != nil {
		return wire.FeedStatus{}, err
	}
	defer f.release()
	st := wire.FeedStatus{
		Name:                     f.name,
		Params:                   wire.ParamsToJSON(f.p),
		Ticks:                    f.ticks,
		Objects:                  len(f.labels),
		Closed:                   f.nextSeq,
		NextSeq:                  f.nextSeq,
		Monitors:                 make([]wire.MonitorStatus, 0, len(f.monitors)),
		ClusterGroups:            len(f.sources),
		ClusterPasses:            f.clusterPasses,
		ClusterPassesFull:        f.passesFull,
		ClusterPassesIncremental: f.passesInc,
		ObjectsReclustered:       f.reclustered,
	}
	if f.objectsSeen > 0 {
		st.ReuseRatio = 1 - float64(f.reclustered)/float64(f.objectsSeen)
	}
	for _, fm := range f.order {
		st.Live += fm.mon.Live()
		st.Monitors = append(st.Monitors, f.monitorStatus(fm))
	}
	if f.started {
		t := f.lastTick
		st.LastTick = &t
	}
	return st, nil
}

// AddMonitor registers a standing query on the feed at runtime. A monitor
// added mid-stream starts chaining at the next ingested tick. On a durable
// feed the registration is journaled after it validates; a journal failure
// unwinds the insert so memory and disk cannot disagree.
func (f *Feed) AddMonitor(ctx context.Context, id string, p core.Params) (wire.MonitorStatus, error) {
	if !ValidName(id) {
		return wire.MonitorStatus{}, Invalid(fmt.Errorf("feed: invalid monitor id %q", id))
	}
	f.touch()
	if err := f.acquire(ctx); err != nil {
		return wire.MonitorStatus{}, err
	}
	defer f.release()
	if err := f.insertMonitor(id, p); err != nil {
		return wire.MonitorStatus{}, err
	}
	if f.w != nil {
		pj := wire.ParamsToJSON(p)
		op := specOp{Op: opMonitorAdd, ID: id, Params: &pj}
		if err := f.appendSpecOp(op); err != nil {
			// A just-inserted monitor has no live candidates, so the
			// unwind drains nothing and emits no events.
			_, _ = f.dropMonitor(id)
			return wire.MonitorStatus{}, fmt.Errorf("feed: journal monitor add: %w", err)
		}
	}
	return f.monitorStatus(f.monitors[id]), nil
}

// Monitor snapshots one monitor's status.
func (f *Feed) Monitor(ctx context.Context, id string) (wire.MonitorStatus, error) {
	if err := f.acquire(ctx); err != nil {
		return wire.MonitorStatus{}, err
	}
	defer f.release()
	fm, ok := f.monitors[id]
	if !ok {
		return wire.MonitorStatus{}, fmt.Errorf("%w: %q", ErrNoMonitor, id)
	}
	return f.monitorStatus(fm), nil
}

// Monitors snapshots the monitor table, ID-sorted.
func (f *Feed) Monitors(ctx context.Context) ([]wire.MonitorStatus, error) {
	if err := f.acquire(ctx); err != nil {
		return nil, err
	}
	defer f.release()
	out := make([]wire.MonitorStatus, 0, len(f.order))
	for _, fm := range f.order {
		out = append(out, f.monitorStatus(fm))
	}
	return out, nil
}

// dropMonitor drains one monitor — its open candidates with sufficient
// lifetime become tagged events — and drops it from the table, releasing
// its cluster source when no other monitor shares the key (lock held, or
// during recovery replay).
func (f *Feed) dropMonitor(id string) ([]wire.ConvoyJSON, error) {
	fm, ok := f.monitors[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoMonitor, id)
	}
	drained := f.drainMonitor(fm)
	delete(f.monitors, id)
	f.cfg.Observer.OnMonitors(-1)
	for i, other := range f.order {
		if other == fm {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	key, shared := fm.p.ClusterKey(), false
	for _, other := range f.monitors {
		if other.p.ClusterKey() == key {
			shared = true
			break
		}
	}
	if !shared {
		delete(f.sources, key)
	}
	return drained, nil
}

// RemoveMonitor drains and removes one monitor. On a durable feed the
// removal is journaled before the monitor drains, so a crash between the
// two replays the removal rather than resurrecting the monitor.
func (f *Feed) RemoveMonitor(ctx context.Context, id string) (wire.MonitorCloseResponse, error) {
	f.touch()
	if err := f.acquire(ctx); err != nil {
		return wire.MonitorCloseResponse{}, err
	}
	defer f.release()
	if _, ok := f.monitors[id]; !ok {
		return wire.MonitorCloseResponse{}, fmt.Errorf("%w: %q", ErrNoMonitor, id)
	}
	if f.w != nil {
		if err := f.appendSpecOp(specOp{Op: opMonitorRemove, ID: id}); err != nil {
			return wire.MonitorCloseResponse{}, fmt.Errorf("feed: journal monitor remove: %w", err)
		}
	}
	drained, err := f.dropMonitor(id)
	if err != nil {
		return wire.MonitorCloseResponse{}, err
	}
	return wire.MonitorCloseResponse{ID: id, Drained: drained}, nil
}

// EventsSince returns the retained events with seq ≥ since.
func (f *Feed) EventsSince(ctx context.Context, since uint64) (wire.EventsResponse, error) {
	f.touch()
	if err := f.acquire(ctx); err != nil {
		return wire.EventsResponse{}, err
	}
	defer f.release()
	return wire.EventsResponse{Events: f.replay(since), NextSeq: f.nextSeq}, nil
}

// replay copies the retained events with seq ≥ since, oldest first (lock
// held).
func (f *Feed) replay(since uint64) []wire.Event {
	out := []wire.Event{}
	n := uint64(len(f.history))
	for seq := max(since, f.nextSeq-n); seq < f.nextSeq; seq++ {
		out = append(out, f.history[seq%n])
	}
	return out
}

// Subscribe atomically replays history since the given seq and registers a
// live event channel, so no event between replay and registration is lost.
// The returned channel is closed when the feed dies or the subscriber lags
// beyond its buffer; cancel unregisters it.
func (f *Feed) Subscribe(ctx context.Context, since uint64) (replayed []wire.Event, events <-chan wire.Event, cancel func(), err error) {
	f.touch()
	if err := f.acquire(ctx); err != nil {
		return nil, nil, nil, err
	}
	defer f.release()
	ch := make(chan wire.Event, f.cfg.EventBuffer)
	f.subs[ch] = struct{}{}
	cancel = func() {
		// Best-effort: the feed may already be gone, which also closes ch.
		if f.acquire(context.Background()) != nil {
			return
		}
		defer f.release()
		if _, ok := f.subs[ch]; ok {
			delete(f.subs, ch)
			close(ch)
		}
	}
	return f.replay(since), ch, cancel, nil
}

// close drains every monitor in the table — open candidates with
// sufficient lifetime become final tagged events — and closes every
// subscriber; later operations fail with ErrFeedClosed. It ignores the
// caller's context: once a feed leaves the registry nobody else can drain
// it.
func (f *Feed) close() (wire.FeedCloseResponse, error) {
	if err := f.acquire(context.Background()); err != nil {
		return wire.FeedCloseResponse{}, err
	}
	defer f.release()
	resp := wire.FeedCloseResponse{Drained: []wire.ConvoyJSON{}}
	for _, fm := range f.order {
		resp.Drained = append(resp.Drained, f.drainMonitor(fm)...)
	}
	for ch := range f.subs {
		delete(f.subs, ch)
		close(ch)
	}
	// The table dies with the feed: its monitors leave the count even
	// though the map itself is not cleared.
	f.cfg.Observer.OnMonitors(-len(f.order))
	if f.w != nil {
		// Release the file handles with the feed; the files stay on disk
		// (the registry removes the directory on removal, keeps it on idle
		// eviction so a restart resurrects the feed).
		if err := f.w.close(); err != nil {
			f.cfg.Logger.Error("wal close failed", "feed", f.name, "error", err.Error())
		}
	}
	f.closed = true
	return resp, nil
}
