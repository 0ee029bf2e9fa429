// Package model defines the trajectory database model of the paper's
// Section 3: a discrete time domain {t1, …, tT}, trajectories as sequences
// of timestamped locations with per-object lifespans, possibly irregular
// sampling (missing ticks), and a DB container that exposes the global
// statistics used to drive the experiments (Table 3).
//
// A database is read one tick at a time: the snapshot O_t is every object
// alive at t with its location, interpolated by the virtual-location rule
// where t falls in a sampling gap (Trajectory.LocationAt). Scans visit
// ticks in ascending order, so they sweep (sweep.go): DB.Sweep plans the
// trajectories involved and their activation order once, and each worker's
// Cursor carries the alive set and one sample index per alive trajectory
// from tick to tick — Cursor.At costs O(alive), allocates nothing in steady
// state, and lends out buffers that stay valid only until its next call.
// DB.SnapshotAt is the one-tick case of the same code, and TickSpan the one
// overflow-safe way to count the ticks of a domain.
package model

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// Tick is a discrete time point in the ordered time domain {t1, …, tT}.
type Tick = int64

// ObjectID identifies a moving object within a DB. IDs are small dense
// integers assigned by the DB so that algorithms can use them as slice
// indices and set members cheaply.
type ObjectID = int

// Sample is a timestamped location (x, y, t): the location of an object at
// time T.
type Sample struct {
	T Tick
	P geom.Point
}

// Trajectory is the recorded movement of one object: a time-ordered sequence
// of samples. Sampling may be irregular — ticks may be missing between the
// first and last sample — and different trajectories may cover different
// time intervals (objects appear and disappear at arbitrary times).
type Trajectory struct {
	// ID is the dense object identifier assigned by the DB (index order).
	ID ObjectID
	// Label is an optional external name (e.g., the source file's object
	// key). It plays no role in the algorithms.
	Label string
	// Samples is strictly increasing in T.
	Samples []Sample
}

// ErrUnsorted is returned when constructing a trajectory from samples that
// are not strictly increasing in time.
var ErrUnsorted = errors.New("model: samples not strictly increasing in time")

// ErrEmpty is returned when constructing a trajectory with no samples.
var ErrEmpty = errors.New("model: trajectory has no samples")

// ErrNonFinite is returned when constructing a trajectory from a sample
// whose coordinates are NaN or infinite.
var ErrNonFinite = errors.New("model: non-finite coordinates")

// NewTrajectory validates the samples (non-empty, finite coordinates,
// strictly increasing time) and returns a trajectory with the given label.
// The ID is assigned when the trajectory is added to a DB.
//
// Every entry into a database refuses non-finite coordinates — the CSV and
// tick-block readers, the feed and Streamer.Advance check them too —
// because the CuTS filter bounds cannot hold over a NaN: a trajectory
// carrying one would let the filter drop a convoy that CMC reports.
func NewTrajectory(label string, samples []Sample) (*Trajectory, error) {
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	for i := range samples {
		if p := samples[i].P; !p.Finite() {
			return nil, fmt.Errorf("%w: t[%d]=%d at (%g, %g) (label %q)",
				ErrNonFinite, i, samples[i].T, p.X, p.Y, label)
		}
		if i > 0 && samples[i].T <= samples[i-1].T {
			return nil, fmt.Errorf("%w: t[%d]=%d after t[%d]=%d (label %q)",
				ErrUnsorted, i, samples[i].T, i-1, samples[i-1].T, label)
		}
	}
	return &Trajectory{Label: label, Samples: samples}, nil
}

// Len returns the number of recorded samples (the |o| of Section 7.4).
func (tr *Trajectory) Len() int { return len(tr.Samples) }

// Start returns the first sample time t_a.
func (tr *Trajectory) Start() Tick { return tr.Samples[0].T }

// End returns the last sample time t_b.
func (tr *Trajectory) End() Tick { return tr.Samples[len(tr.Samples)-1].T }

// Duration returns the trajectory's time-interval length o.τ = t_b − t_a + 1
// in ticks (a single-sample trajectory has duration 1).
func (tr *Trajectory) Duration() int64 { return int64(tr.End()-tr.Start()) + 1 }

// Covers reports whether t lies in the trajectory's time interval
// [Start, End], i.e., t ∈ o.τ.
func (tr *Trajectory) Covers(t Tick) bool { return t >= tr.Start() && t <= tr.End() }

// sampleIndex returns the index of the last sample with time ≤ t, or -1 if
// t precedes the first sample.
func (tr *Trajectory) sampleIndex(t Tick) int {
	lo, hi := 0, len(tr.Samples)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); tr.Samples[mid].T > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo - 1
}

// At returns the recorded location at exactly tick t, if a sample exists.
func (tr *Trajectory) At(t Tick) (geom.Point, bool) {
	i := tr.sampleIndex(t)
	if i >= 0 && tr.Samples[i].T == t {
		return tr.Samples[i].P, true
	}
	return geom.Point{}, false
}

// LocationAt returns the object's location at tick t, interpolating a
// virtual point linearly between the surrounding samples when t falls in a
// sampling gap (the virtual-location rule of Section 4). It reports false
// when t lies outside the trajectory's time interval.
func (tr *Trajectory) LocationAt(t Tick) (geom.Point, bool) {
	if !tr.Covers(t) {
		return geom.Point{}, false
	}
	return tr.locate(tr.sampleIndex(t), t), true
}

// locate is the virtual-location rule itself: the location at tick t of a
// trajectory covering t, given the index i of its last sample with T ≤ t.
// LocationAt and the sweep Cursor both end here, so a swept snapshot and a
// looked-up one agree bit for bit.
func (tr *Trajectory) locate(i int, t Tick) geom.Point {
	s := tr.Samples[i]
	if s.T == t {
		return s.P
	}
	// t is strictly between samples i and i+1 (covering t guarantees i+1 exists).
	next := tr.Samples[i+1]
	f := float64(t-s.T) / float64(next.T-s.T)
	return s.P.Lerp(next.P, f)
}

// Bounds returns the spatial bounding box of all samples.
func (tr *Trajectory) Bounds() geom.Rect {
	r := geom.EmptyRect()
	for _, s := range tr.Samples {
		r = r.ExtendPoint(s.P)
	}
	return r
}

// Clip returns a new trajectory containing only the samples with
// lo ≤ t ≤ hi (sharing the underlying sample storage). It returns nil when
// no sample falls in the range.
func (tr *Trajectory) Clip(lo, hi Tick) *Trajectory {
	i := sort.Search(len(tr.Samples), func(i int) bool { return tr.Samples[i].T >= lo })
	j := sort.Search(len(tr.Samples), func(i int) bool { return tr.Samples[i].T > hi })
	if i >= j {
		return nil
	}
	return &Trajectory{ID: tr.ID, Label: tr.Label, Samples: tr.Samples[i:j]}
}

// DB is a trajectory database: a set of trajectories with dense ObjectIDs.
type DB struct {
	trajs   []*Trajectory
	byLabel map[string]ObjectID
}

// NewDB returns an empty trajectory database.
func NewDB() *DB {
	return &DB{byLabel: make(map[string]ObjectID)}
}

// Add assigns the next dense ObjectID to the trajectory, registers its label
// (when non-empty and unique), and returns the assigned ID.
func (db *DB) Add(tr *Trajectory) ObjectID {
	id := len(db.trajs)
	tr.ID = id
	db.trajs = append(db.trajs, tr)
	if tr.Label != "" {
		if _, dup := db.byLabel[tr.Label]; !dup {
			db.byLabel[tr.Label] = id
		}
	}
	return id
}

// Len returns the number of trajectories N.
func (db *DB) Len() int { return len(db.trajs) }

// Traj returns the trajectory with the given ID; it panics on an invalid ID,
// matching slice-index semantics.
func (db *DB) Traj(id ObjectID) *Trajectory { return db.trajs[id] }

// Trajectories returns the backing slice of trajectories in ID order.
// Callers must not reorder it.
func (db *DB) Trajectories() []*Trajectory { return db.trajs }

// ByLabel returns the trajectory with the given label, if registered.
func (db *DB) ByLabel(label string) (*Trajectory, bool) {
	id, ok := db.byLabel[label]
	if !ok {
		return nil, false
	}
	return db.trajs[id], true
}

// TimeRange returns the global time domain [lo, hi] covered by the database
// and false when the database is empty.
func (db *DB) TimeRange() (lo, hi Tick, ok bool) {
	if len(db.trajs) == 0 {
		return 0, 0, false
	}
	lo, hi = db.trajs[0].Start(), db.trajs[0].End()
	for _, tr := range db.trajs[1:] {
		if s := tr.Start(); s < lo {
			lo = s
		}
		if e := tr.End(); e > hi {
			hi = e
		}
	}
	return lo, hi, true
}

// Bounds returns the spatial bounding box of the whole database.
func (db *DB) Bounds() geom.Rect {
	r := geom.EmptyRect()
	for _, tr := range db.trajs {
		r = r.Union(tr.Bounds())
	}
	return r
}

// Stats summarises the database with the quantities reported in Table 3.
type Stats struct {
	NumObjects       int     // N
	TimeDomainLength int64   // T = hi − lo + 1
	AvgTrajLen       float64 // average number of recorded points per trajectory
	TotalPoints      int     // data size (points)
	AvgDuration      float64 // average o.τ in ticks
	MissingFraction  float64 // fraction of in-span ticks without a sample
}

// Stats computes the database statistics in a single pass.
func (db *DB) Stats() Stats {
	s := Stats{NumObjects: len(db.trajs)}
	if len(db.trajs) == 0 {
		return s
	}
	lo, hi, _ := db.TimeRange()
	s.TimeDomainLength = int64(hi-lo) + 1
	var dur, inSpan int64
	for _, tr := range db.trajs {
		s.TotalPoints += tr.Len()
		dur += tr.Duration()
		inSpan += tr.Duration()
	}
	s.AvgTrajLen = float64(s.TotalPoints) / float64(len(db.trajs))
	s.AvgDuration = float64(dur) / float64(len(db.trajs))
	if inSpan > 0 {
		s.MissingFraction = 1 - float64(s.TotalPoints)/float64(inSpan)
	}
	if s.MissingFraction < 0 {
		s.MissingFraction = 0
	}
	return s
}

// SumTrajLen returns Σ|oi|, the total number of recorded points.
func (db *DB) SumTrajLen() int {
	n := 0
	for _, tr := range db.trajs {
		n += tr.Len()
	}
	return n
}

// MaxTick is a sentinel larger than any valid tick.
const MaxTick = Tick(math.MaxInt64)

// MinTick is a sentinel smaller than any valid tick.
const MinTick = Tick(math.MinInt64)
