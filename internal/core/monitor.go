package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/increment"
	"repro/internal/model"
)

// The streaming engine is split into two composable stages so that many
// standing convoy queries can share one position feed:
//
//   - a ClusterSource computes the per-tick snapshot clusters at one
//     clustering key (e, m) — the DBSCAN pass, the expensive part;
//   - a Monitor consumes cluster lists and maintains the candidate chains
//     for its own (m, k) — the cheap part.
//
// DBSCAN output depends only on (e, m), never on k, so any number of
// monitors whose parameters share a ClusterKey can be fed from a single
// source: per tick, one clustering pass fans out to all of them. Streamer
// is the 1-monitor special case wiring one source to one monitor.

// ClusterKey identifies a clustering configuration: the density-connection
// distance e and the density threshold m. Monitors whose parameters share a
// key can share one ClusterSource (and thus one clustering pass per tick).
// The key does not name a backend: a source owns its Clusterer, so whether
// two monitors share a pass is decided by whether they share the source.
type ClusterKey struct {
	Eps float64
	M   int
}

// ClusterKey returns the clustering key of the parameters: the (e, m) part
// that determines the snapshot clusters, independent of the lifetime k.
func (p Params) ClusterKey() ClusterKey { return ClusterKey{Eps: p.Eps, M: p.M} }

// Validate reports whether the key is usable (same bounds as Params).
func (k ClusterKey) Validate() error {
	return Params{M: k.M, K: 1, Eps: k.Eps}.Validate()
}

// ClusterSource computes the per-tick clusters of one pushed snapshot at a
// fixed clustering key with a fixed Clusterer, counting how many clustering
// passes it has run. It is the per-tick cluster stage of the streaming
// engine: its cluster output per tick is a pure function of that tick's
// snapshot, so one source can drive any number of Monitors. Not safe for
// concurrent use.
//
// As an internal acceleration the source may carry an incremental engine
// (on for the grid-DBSCAN backend, see WithIncremental) that
// reuses the previous tick's grid and neighborhood structure — cross-tick
// state that changes how fast an answer is computed, never what it is. The
// Clusterer itself stays stateless.
type ClusterSource struct {
	key    ClusterKey
	c      Clusterer
	passes int64

	// eng, when non-nil, answers Cluster calls incrementally; last
	// describes the most recent pass for the feed-level metrics, and meter,
	// when non-nil, aggregates every pass of the scan the source belongs to.
	eng   *increment.Engine
	last  increment.Pass
	meter *scanMeter
}

// NewClusterSource validates the key and returns a source with a zeroed
// pass counter, clustering with the default grid-DBSCAN backend.
func NewClusterSource(key ClusterKey) (*ClusterSource, error) {
	return NewClusterSourceWith(key, nil)
}

// NewClusterSourceWith validates the key and returns a source clustering
// with c (nil means DefaultClusterer).
func NewClusterSourceWith(key ClusterKey, c Clusterer) (*ClusterSource, error) {
	if c == nil {
		c = DefaultClusterer
	}
	if err := key.Validate(); err != nil {
		return nil, err
	}
	return newSource(key, c, DefaultChurnThreshold, nil), nil
}

// newSource assembles a source over validated arguments — the one
// constructor behind the public ones and the CMC scan, and so the one place
// that decides, once, whether a source carries an incremental engine:
// threshold > 0 is the churn threshold above which a tick rebuilds from
// scratch, ≤ 0 runs every tick from scratch (see WithIncremental). meter,
// when non-nil, is bumped on every pass.
func newSource(key ClusterKey, c Clusterer, threshold float64, meter *scanMeter) *ClusterSource {
	s := &ClusterSource{key: key, c: c, meter: meter}
	if incrementalApplies(c, threshold) {
		s.eng = increment.New(key.Eps, key.M, threshold)
	}
	return s
}

// Key returns the source's clustering key.
func (s *ClusterSource) Key() ClusterKey { return s.key }

// Clusterer returns the backend computing the source's clusters.
func (s *ClusterSource) Clusterer() Clusterer { return s.c }

// Passes returns the number of clustering passes so far — the counter the
// multi-monitor sharing tests and the monitors benchmark rely on.
func (s *ClusterSource) Passes() int64 { return s.passes }

// LastPass describes the source's most recent clustering pass: whether it
// was answered incrementally and how many objects were actually
// re-clustered (the full snapshot on a from-scratch pass). It is the hook
// the serve feed loop uses to split its pass counters.
func (s *ClusterSource) LastPass() (incremental bool, reclustered int) {
	return !s.last.Full, s.last.Reclustered
}

// Cluster runs one clustering pass over a pushed tick snapshot. IDs need
// not be sorted; cluster member lists come out ascending (the Clusterer
// contract). The caller is responsible for snapshot validation (parallel
// IDs/Pts slices, no duplicate IDs — see FirstDuplicateID, finite
// coordinates); Streamer.Advance and the feed runtime both do this before
// clustering.
func (s *ClusterSource) Cluster(snap TickSnapshot) [][]model.ObjectID {
	var out [][]model.ObjectID
	if s.eng != nil {
		out, s.last = s.eng.Tick(snap.IDs, snap.Pts)
	} else {
		out = s.c.Clusters(s.key, snap)
		s.last = increment.Pass{Full: true, Reclustered: len(snap.IDs)}
	}
	s.passes++
	s.meter.addPass(s.last)
	return out
}

// Snapshot clusters the object IDs alive at one tick and their positions
// (parallel slices) — Cluster without a tick, for backends that read
// positions only.
func (s *ClusterSource) Snapshot(ids []model.ObjectID, pts []geom.Point) [][]model.ObjectID {
	return s.Cluster(TickSnapshot{IDs: ids, Pts: pts})
}

// Monitor maintains one standing convoy query over a stream of per-tick
// cluster lists: push the snapshot clusters for each tick with
// AdvanceClusters, receive convoys the moment they close, flush the rest
// with Close. It is the chaining stage of the streaming engine — it never
// clusters anything itself, so feeding N monitors that share a ClusterKey
// from one ClusterSource costs one DBSCAN pass per tick, not N.
//
// The clusters pushed at each tick must be the snapshot clusters of the
// monitored feed computed at the monitor's own ClusterKey (Params.M and
// Params.Eps); feeding clusters from a different key silently answers that
// key's query instead. Emission semantics are exactly the Streamer's: raw
// exact answers that may include non-maximal duplicates across emissions
// (canonicalize the union for the batch-equal answer).
type Monitor struct {
	p        Params
	live     []*candidate
	next     candidateSet // the generation chainStep builds, reused every tick
	lastTick model.Tick
	started  bool
	closed   bool
}

// NewMonitor validates the parameters and returns an empty monitor.
func NewMonitor(p Params) (*Monitor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Monitor{p: p}, nil
}

// Params returns the monitor's convoy query parameters.
func (m *Monitor) Params() Params { return m.p }

// Live returns the number of open convoy candidates.
func (m *Monitor) Live() int { return len(m.live) }

// LastTick returns the most recently advanced tick; valid after the first
// AdvanceClusters.
func (m *Monitor) LastTick() (model.Tick, bool) { return m.lastTick, m.started }

// AdvanceClusters pushes the snapshot clusters for tick t. Ticks must
// advance strictly; gaps are allowed and break convoy consecutiveness
// (every live candidate dies at the last seen tick, like a tick with no
// clusters). It returns the convoys that closed at this tick: groups whose
// togetherness ended at t−1 (or earlier, for a tick gap) with lifetime ≥ k.
//
// The Monitor keeps the lists it is given: open candidates share the member
// lists, and the monitor compares the next tick's list against this one. So
// clusters and its member lists must stay unwritten from here on — hand
// over freshly built lists, or lists handed over before, never a buffer the
// caller fills again.
func (m *Monitor) AdvanceClusters(t model.Tick, clusters [][]model.ObjectID) ([]Convoy, error) {
	if m.closed {
		return nil, fmt.Errorf("core: AdvanceClusters on closed Monitor")
	}
	if m.started && t <= m.lastTick {
		return nil, fmt.Errorf("core: AdvanceClusters: tick %d not after %d", t, m.lastTick)
	}
	var out []Convoy
	if m.started && t > m.lastTick+1 {
		// Tick gap: every live candidate dies at lastTick.
		m.live = chainStep(&m.next, m.live, nil, m.p.M, m.p.K, t, t, false, &out, nil)
	}
	m.lastTick, m.started = t, true
	m.live = chainStep(&m.next, m.live, clusters, m.p.M, m.p.K, t, t, false, &out, nil)
	sortResult(out)
	return out, nil
}

// Close ends the stream and returns the convoys still open at the last
// advanced tick (lifetime ≥ k). Further AdvanceClusters calls fail.
func (m *Monitor) Close() []Convoy {
	if m.closed {
		return nil
	}
	m.closed = true
	var out []Convoy
	flushCandidates(m.live, m.p.K, &out, nil)
	m.live = nil
	sortResult(out)
	return out
}

// FirstDuplicateID reports a repeated object ID in a pushed snapshot — the
// validation Streamer.Advance runs, and the answer a feed's own check over
// its dense interned IDs gives too (a repeated ID would cluster with itself
// and corrupt candidate sets, emitting convoys like ⟨o1,o1,o2⟩). The common
// case — IDs already ascending, as database replays produce — is checked
// with a linear scan and no allocation; unsorted snapshots fall back to a
// set.
func FirstDuplicateID(ids []model.ObjectID) (model.ObjectID, bool) {
	sorted := true
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return ids[i], true
		}
		if ids[i] < ids[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		return 0, false
	}
	seen := make(map[model.ObjectID]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			return id, true
		}
		seen[id] = struct{}{}
	}
	return 0, false
}
