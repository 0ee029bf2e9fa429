// Package proxgraph clusters proximity logs: coordinate-free records of
// the form "objects a and b were in contact at tick t with weight w",
// the setting of network/indoor convoy discovery (Bluetooth sightings,
// access-point co-presence, contact tracing) where no positions exist.
//
// Density here is graph connectivity instead of Euclidean DBSCAN: at each
// tick, the edges whose weight reaches the clustering key's Eps form a
// graph, and every connected component with at least M members is a
// cluster. Chained across ticks by the unchanged CMC machinery this
// yields convoys "≥ m objects pairwise-connected through contacts for ≥ k
// consecutive ticks". For m = 2 the two density notions coincide exactly
// (a DBSCAN cluster at minPts 2 is a connected component of the
// ≤-eps-distance graph), which the cross-backend property tests exploit;
// for larger m they deliberately differ — components have no core-point
// requirement.
//
// The package provides Clusterer (a core.Clusterer with Name
// "proxgraph" reading a Log), Log (an edge store that can synthesize a
// minimal model.DB so the batch Query engine can drive it), and FromDB
// (derive a contact log from a trajectory database — the bridge the tests
// use). It is a library option (core.WithClusterer(log.Clusterer())): the
// daemon and the CLIs cluster positions only.
package proxgraph

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/tsio"
)

// Backend is the clusterer's Name.
const Backend = "proxgraph"

// Edge is one proximity observation between two objects at a tick: objects
// A and B (dense IDs of the log) in contact with weight W (e.g. contact
// duration or signal strength), thresholded against the clustering key's
// Eps.
type Edge struct {
	A, B model.ObjectID
	W    float64
}

// Components returns the connected components of the proximity graph
// formed by the edges with W ≥ minW, keeping components with at least m
// members. Members are ascending object IDs; components are ordered by
// their smallest member. Objects appear only as edge endpoints — an
// isolated object is in no component.
func Components(edges []Edge, minW float64, m int) [][]model.ObjectID {
	parent := make(map[model.ObjectID]model.ObjectID)
	var find func(x model.ObjectID) model.ObjectID
	find = func(x model.ObjectID) model.ObjectID {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	for _, e := range edges {
		if e.W < minW {
			continue
		}
		ra, rb := find(e.A), find(e.B)
		if ra != rb {
			parent[ra] = rb
		}
	}
	groups := make(map[model.ObjectID][]model.ObjectID)
	for x := range parent {
		r := find(x)
		groups[r] = append(groups[r], x)
	}
	var out [][]model.ObjectID
	for _, g := range groups {
		if len(g) < m {
			continue
		}
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Clusterer is the graph-connectivity core.Clusterer: each tick's edges
// are looked up in Log by the snapshot's tick (the Query engine replays the
// log's synthesized position database, whose positions it never reads). A
// nil Log has no edges, so no clusters.
type Clusterer struct {
	Log *Log
}

// Name returns Backend.
func (Clusterer) Name() string { return Backend }

// Clusters returns the connected components of the tick's proximity graph
// at weight threshold key.Eps with at least key.M members.
func (c Clusterer) Clusters(key core.ClusterKey, snap core.TickSnapshot) [][]model.ObjectID {
	if c.Log == nil {
		return nil
	}
	return Components(c.Log.EdgesAt(snap.T), key.Eps, key.M)
}

// Log is an in-memory proximity log: interned object labels (dense IDs in
// order of first appearance, like tsio trajectory loading) and per-tick
// edge lists. Not safe for concurrent mutation.
type Log struct {
	labels  []string
	byLabel map[string]model.ObjectID
	ticks   map[model.Tick][]Edge
	span    map[model.ObjectID][2]model.Tick // first/last contact tick
	lo, hi  model.Tick
	some    bool
	db      *model.DB // memoized DB(); reset by Add
}

// NewLog returns an empty log.
func NewLog() *Log {
	return &Log{
		byLabel: make(map[string]model.ObjectID),
		ticks:   make(map[model.Tick][]Edge),
		span:    make(map[model.ObjectID][2]model.Tick),
	}
}

// intern returns the dense ID for a label, assigning the next one on
// first appearance.
func (l *Log) intern(label string) model.ObjectID {
	if id, ok := l.byLabel[label]; ok {
		return id
	}
	id := model.ObjectID(len(l.labels))
	l.byLabel[label] = id
	l.labels = append(l.labels, label)
	return id
}

// Add records one contact edge. Labels must be non-empty and distinct
// (no self-loops); the weight must be finite and ≥ 0. Repeated (a, b)
// contacts at one tick are kept as separate edges — each is thresholded
// independently, and connectivity is idempotent.
func (l *Log) Add(a, b string, t model.Tick, w float64) error {
	if a == "" || b == "" {
		return fmt.Errorf("proxgraph: empty object label in edge (%q, %q) at tick %d", a, b, t)
	}
	if a == b {
		return fmt.Errorf("proxgraph: self-loop on %q at tick %d", a, t)
	}
	if !geom.Finite(w) || w < 0 {
		return fmt.Errorf("proxgraph: bad weight %g for (%q, %q) at tick %d (want finite ≥ 0)", w, a, b, t)
	}
	ia, ib := l.intern(a), l.intern(b)
	l.ticks[t] = append(l.ticks[t], Edge{A: ia, B: ib, W: w})
	for _, id := range []model.ObjectID{ia, ib} {
		if sp, ok := l.span[id]; ok {
			if t < sp[0] {
				sp[0] = t
			}
			if t > sp[1] {
				sp[1] = t
			}
			l.span[id] = sp
		} else {
			l.span[id] = [2]model.Tick{t, t}
		}
	}
	if !l.some || t < l.lo {
		l.lo = t
	}
	if !l.some || t > l.hi {
		l.hi = t
	}
	l.some = true
	l.db = nil
	return nil
}

// AddRecord adds one parsed tsio edge record.
func (l *Log) AddRecord(r tsio.EdgeRecord) error { return l.Add(r.A, r.B, r.T, r.W) }

// Objects returns the number of distinct interned objects.
func (l *Log) Objects() int { return len(l.labels) }

// Label returns the label of a dense object ID ("" when out of range).
func (l *Log) Label(id model.ObjectID) string {
	if id < 0 || int(id) >= len(l.labels) {
		return ""
	}
	return l.labels[id]
}

// ID returns the dense ID of a label.
func (l *Log) ID(label string) (model.ObjectID, bool) {
	id, ok := l.byLabel[label]
	return id, ok
}

// TimeRange returns the first and last tick with an edge.
func (l *Log) TimeRange() (lo, hi model.Tick, ok bool) { return l.lo, l.hi, l.some }

// EdgesAt returns the edges recorded at tick t, in insertion order. The
// slice is the log's own storage — callers must not mutate it.
func (l *Log) EdgesAt(t model.Tick) []Edge { return l.ticks[t] }

// Records returns every edge as tsio records (labels restored), ordered
// by tick and, within a tick, by insertion — written back as an edge CSV,
// they read back as the same log.
func (l *Log) Records() []tsio.EdgeRecord {
	ts := make([]model.Tick, 0, len(l.ticks))
	for t := range l.ticks {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	var out []tsio.EdgeRecord
	for _, t := range ts {
		for _, e := range l.ticks[t] {
			out = append(out, tsio.EdgeRecord{A: l.labels[e.A], B: l.labels[e.B], T: t, W: e.W})
		}
	}
	return out
}

// Window copies the records inside [lo, hi] into a fresh log — the contact
// log's form of a time slice: per-tick clusters are a pure function of that
// tick's edges, so dropping out-of-window records is exact.
func (l *Log) Window(lo, hi model.Tick) (*Log, error) {
	out := NewLog()
	for _, r := range l.Records() {
		if r.T < lo || r.T > hi {
			continue
		}
		if err := out.AddRecord(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Clusterer returns the log's graph-connectivity backend: a Clusterer
// that resolves each tick's edges from this log, for batch queries over
// DB() (core.WithClusterer(log.Clusterer())).
func (l *Log) Clusterer() core.Clusterer { return Clusterer{Log: l} }

// DB synthesizes the minimal trajectory database that keeps every logged
// object alive over its contact span: one placeholder sample at the first
// contact tick and one at the last (positions are synthetic — x is the
// dense ID — and never inspected by the proxgraph backend). Dense IDs and
// labels match the log's exactly, so convoys discovered over this DB name
// the log's objects. The result is memoized until the next Add; treat it
// as read-only.
func (l *Log) DB() (*model.DB, error) {
	if l.db != nil {
		return l.db, nil
	}
	db := model.NewDB()
	for id, label := range l.labels {
		sp := l.span[model.ObjectID(id)]
		samples := []model.Sample{{T: sp[0], P: geom.Pt(float64(id), 0)}}
		if sp[1] > sp[0] {
			samples = append(samples, model.Sample{T: sp[1], P: geom.Pt(float64(id), 0)})
		}
		tr, err := model.NewTrajectory(label, samples)
		if err != nil {
			return nil, fmt.Errorf("proxgraph: object %q: %w", label, err)
		}
		db.Add(tr)
	}
	l.db = db
	return db, nil
}

// ReadLog parses a CSV edge list (header "a,b,t,w", see tsio.ReadEdgeCSV)
// into a log.
func ReadLog(r io.Reader) (*Log, error) {
	recs, err := tsio.ReadEdgeCSV(r)
	if err != nil {
		return nil, err
	}
	l := NewLog()
	for _, rec := range recs {
		if err := l.AddRecord(rec); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// FromDB derives a contact log from a trajectory database: at every tick,
// each pair of alive objects within distance r contributes a weight-1
// edge. Labels carry over (empty ones as "o<ID>"); interning follows
// first contact, so dense IDs need not match the source database's. This
// is the benchmark bridge — with threshold Eps ≤ 1 it turns a geometric
// dataset into the proximity-graph view of the same movement.
func FromDB(db *model.DB, r float64) (*Log, error) {
	l := NewLog()
	lo, hi, ok := db.TimeRange()
	if !ok {
		return l, nil
	}
	label := func(id model.ObjectID) string {
		if s := db.Traj(id).Label; s != "" {
			return s
		}
		return fmt.Sprintf("o%d", id)
	}
	cur := db.Sweep(nil).Cursor()
	for k, n := int64(0), model.TickSpan(lo, hi); k < n; k++ {
		t := lo + model.Tick(k)
		ids, pts := cur.At(t)
		for i := range ids {
			for j := i + 1; j < len(ids); j++ {
				if geom.D(pts[i], pts[j]) <= r {
					if err := l.Add(label(ids[i]), label(ids[j]), t, 1); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return l, nil
}
