package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/model"
)

// Streamer discovers convoys incrementally over a live position feed — the
// online counterpart of CMC for the monitoring applications the paper's
// introduction motivates (fleet tracking, ride-sharing alerts). Snapshots
// are pushed tick by tick; a convoy is emitted the moment it closes (its
// group stops being density-connected), so downstream consumers learn about
// a dissolved convoy one tick after it ends. Convoys still open when the
// feed stops are emitted by Close.
//
// A Streamer is the 1-monitor special case of the two-stage streaming
// engine: one ClusterSource (the per-tick snapshot DBSCAN at the
// parameters' ClusterKey) wired to one Monitor (the candidate chains for
// (m, k)). Many standing queries over one feed should instead share
// sources directly — see Monitor.
//
// The stream emission is *raw*: emitted convoys are exact answers but may
// include non-maximal duplicates across emissions (a batch run
// canonicalizes at the end; a stream cannot retract). Feeding every tick of
// a database through a Streamer and canonicalizing the emissions yields
// exactly the CMC batch result — a property the tests enforce.
type Streamer struct {
	src *ClusterSource
	mon *Monitor
}

// NewStreamer validates the parameters and returns an empty stream state.
func NewStreamer(p Params) (*Streamer, error) {
	mon, err := NewMonitor(p)
	if err != nil {
		return nil, err
	}
	src, err := NewClusterSource(p.ClusterKey())
	if err != nil {
		return nil, err
	}
	return &Streamer{src: src, mon: mon}, nil
}

// Live returns the number of open convoy candidates.
func (s *Streamer) Live() int { return s.mon.Live() }

// LastTick returns the most recently advanced tick; valid after the first
// Advance.
func (s *Streamer) LastTick() (model.Tick, bool) { return s.mon.LastTick() }

// ClusterPasses returns the number of snapshot clustering passes run so
// far (one per accepted Advance).
func (s *Streamer) ClusterPasses() int64 { return s.src.Passes() }

// Advance pushes the snapshot for tick t: the object IDs alive at t and
// their positions (parallel slices). Ticks must advance strictly; gaps are
// allowed and are treated as empty snapshots (they break convoy
// consecutiveness, like a tick with no clusters). It returns the convoys
// that closed at this tick, i.e., groups whose togetherness ended at t−1
// (or earlier, for a tick gap) with lifetime ≥ k.
func (s *Streamer) Advance(t model.Tick, ids []model.ObjectID, pts []geom.Point) ([]Convoy, error) {
	if s.mon.closed {
		return nil, fmt.Errorf("core: Advance on closed Streamer")
	}
	if len(ids) != len(pts) {
		return nil, fmt.Errorf("core: Advance: %d ids vs %d points", len(ids), len(pts))
	}
	for i, p := range pts {
		if !geom.Finite(p.X) || !geom.Finite(p.Y) {
			// Checked before any state changes, like serve's feed handler:
			// the tick is refused, not clustered without the object.
			return nil, fmt.Errorf("core: Advance: object %d has non-finite coordinates (%g, %g) at tick %d", ids[i], p.X, p.Y, t)
		}
	}
	if dup, ok := FirstDuplicateID(ids); ok {
		// A repeated ID would cluster with itself and corrupt the candidate
		// sets (emitting convoys like ⟨o1,o1,o2⟩), so the snapshot is
		// rejected before any state changes — like serve's feed handler.
		return nil, fmt.Errorf("core: Advance: duplicate object id %d at tick %d", dup, t)
	}
	if s.mon.started && t <= s.mon.lastTick {
		// Checked here, not left to the monitor, so a rejected tick never
		// pays for a clustering pass.
		return nil, fmt.Errorf("core: Advance: tick %d not after %d", t, s.mon.lastTick)
	}
	return s.mon.AdvanceClusters(t, s.src.Snapshot(ids, pts))
}

// Close ends the stream and returns the convoys still open at the last
// advanced tick (lifetime ≥ k). Further Advance calls fail.
func (s *Streamer) Close() []Convoy { return s.mon.Close() }

// ReplayTicks walks a stored database tick by tick over its whole time
// domain, calling fn with the snapshot of every tick (the same interpolated
// Ot that CMC clusters, Section 4). It is the bridge between batch storage
// and the online interfaces: the library exposes it to drive a Streamer
// from a stored database, and the tests use it to state the Streamer/CMC
// equivalence. Iteration stops at the first error from fn, which is
// returned. An empty database replays zero ticks. The ids and pts handed
// to fn are the sweep cursor's buffers (model.Cursor): read-only, and valid
// only until fn returns — copy what must outlive the call.
//
// This is deliberately NOT the feed runtime's crash-recovery path.
// ReplayTicks densifies: it visits every tick of the domain and fills
// gaps by interpolating each trajectory — the right semantics for turning
// a trajectory file into a stream. WAL recovery (internal/feed over
// internal/wal) must instead reproduce only the ticks clients actually
// POSTed, verbatim and gaps included, so it replays logged batches
// directly and never interpolates.
func ReplayTicks(db *model.DB, fn func(t model.Tick, ids []model.ObjectID, pts []geom.Point) error) error {
	lo, hi, ok := db.TimeRange()
	if !ok {
		return nil
	}
	cur := db.Sweep(nil).Cursor()
	for i, n := int64(0), model.TickSpan(lo, hi); i < n; i++ {
		t := lo + model.Tick(i)
		ids, pts := cur.At(t)
		if err := fn(t, ids, pts); err != nil {
			return err
		}
	}
	return nil
}
