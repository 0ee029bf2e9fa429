package model

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
)

// TickSpan returns the number of ticks in [lo, hi] (0 when empty). Walking
// a time domain as lo+Tick(i) for i < TickSpan(lo, hi) is the one way this
// repository visits ticks: unlike `for t := lo; t <= hi; t++` it terminates
// when hi is MaxTick, where t++ would wrap. A count that itself overflows
// saturates.
func TickSpan(lo, hi Tick) int64 {
	if hi < lo {
		return 0
	}
	if span := int64(hi-lo) + 1; span > 0 {
		return span
	}
	return math.MaxInt64
}

// SweepPlan is the read-only half of a sweep over a database's snapshots:
// which trajectories take part (all of them, or an ascending ID subset) and
// the order in which they come alive. A plan is built once per scan and
// shared by every worker; each worker sweeps through its own Cursor. It
// describes the database as of the Sweep call — trajectories added later
// are not swept — and keeps a reference to the subset it was given.
type SweepPlan struct {
	trajs   []*Trajectory // the database's trajectories, indexed by ID
	members []ObjectID    // ascending IDs swept; nil means every trajectory
	order   []ObjectID    // the swept IDs by ascending (Start, ID)
}

// Sweep plans a sweep over the whole database (subset nil) or over the
// given ascending object IDs.
func (db *DB) Sweep(subset []ObjectID) *SweepPlan {
	p := &SweepPlan{trajs: db.trajs, members: subset}
	if subset == nil {
		p.order = make([]ObjectID, len(db.trajs))
		for id := range p.order {
			p.order[id] = id
		}
	} else {
		p.order = slices.Clone(subset)
	}
	slices.SortFunc(p.order, func(a, b ObjectID) int {
		if c := cmp.Compare(p.trajs[a].Start(), p.trajs[b].Start()); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return p
}

// Cursor returns a fresh cursor over the plan. Cursors are cheap (their
// buffers grow on first use) and not safe for concurrent use; any number
// may sweep one plan at once.
func (p *SweepPlan) Cursor() *Cursor { return &Cursor{plan: p} }

// Cursor computes the snapshots O_t of a SweepPlan — the objects alive at t
// with their (interpolated) locations, the Ot of Algorithm 1 — for
// whatever ticks At is asked about, and is built for asking in ascending
// order: it keeps the alive set in ID order and, per alive trajectory, the
// index of the sample at or before the last tick, so the next tick costs
// O(alive) with no search and no allocation. Locations are computed by the
// same arithmetic as Trajectory.LocationAt, bit for bit.
type Cursor struct {
	plan    *SweepPlan
	started bool
	last    Tick // the tick the buffers below describe
	// next counts the prefix of plan.order whose Start is ≤ last — the
	// trajectories already activated (or found dead). A seek needs neither
	// it nor at, and leaves next at -1 for the first ascending step to work
	// both out: a one-tick cursor never pays for them.
	next int

	ids   []ObjectID   // alive at last, ascending — handed to the caller
	at    []int        // at[i]: index of ids[i]'s last sample with T ≤ last
	pts   []geom.Point // pts[i]: ids[i]'s location at last — handed to the caller
	fresh []ObjectID   // scratch: trajectories coming alive in one step
}

// At returns the objects alive at tick t in ascending ID order and their
// locations, as parallel slices. The slices are the cursor's own buffers:
// they are valid, and must not be written, until the next At call. A tick
// after the previous one is a sweep step; the first call and a backwards
// seek rebuild the alive set with a walk over every planned trajectory.
func (c *Cursor) At(t Tick) ([]ObjectID, []geom.Point) {
	switch {
	case !c.started || t < c.last:
		c.seek(t)
	case t > c.last:
		c.advance(t)
	}
	c.started, c.last = true, t
	return c.ids, c.pts
}

// seek rebuilds the alive set at t from nothing: every planned trajectory
// in ID order, one binary search per alive one.
func (c *Cursor) seek(t Tick) {
	p := c.plan
	c.ids, c.pts = c.ids[:0], c.pts[:0]
	n := len(p.trajs)
	if p.members != nil {
		n = len(p.members)
	}
	for i := 0; i < n; i++ {
		id := i
		if p.members != nil {
			id = p.members[i]
		}
		tr := p.trajs[id]
		if !tr.Covers(t) {
			continue
		}
		c.ids = append(c.ids, id)
		c.pts = append(c.pts, tr.locate(tr.sampleIndex(t), t))
	}
	c.next = -1
}

// advance moves the alive set from c.last to a later tick t: trajectories
// that started in (last, t] merge in, the ones that ended before t drop
// out, and every survivor's sample index moves forward over the samples
// the step passed.
func (c *Cursor) advance(t Tick) {
	p := c.plan
	if c.next < 0 {
		last := c.last
		c.next = sort.Search(len(p.order), func(i int) bool { return p.trajs[p.order[i]].Start() > last })
		c.at = c.at[:0]
		for _, id := range c.ids {
			c.at = append(c.at, p.trajs[id].sampleIndex(last))
		}
	}
	from := c.next
	for c.next < len(p.order) && p.trajs[p.order[c.next]].Start() <= t {
		c.next++
	}
	if c.next > from {
		c.activate(p.order[from:c.next], t)
	}
	w := 0
	for i, id := range c.ids {
		tr := p.trajs[id]
		s := tr.Samples
		if s[len(s)-1].T < t {
			continue
		}
		j := c.at[i]
		for j+1 < len(s) && s[j+1].T <= t {
			j++
		}
		c.ids[w], c.at[w], c.pts[w] = id, j, tr.locate(j, t)
		w++
	}
	c.ids, c.at, c.pts = c.ids[:w], c.at[:w], c.pts[:w]
}

// activate merges the trajectories that started in one step — a run of
// plan.order — into the alive set, keeping it in ID order, by a backwards
// in-place merge. (One that has already ended again, after a step over
// skipped ticks, is dropped by the walk that follows like any other.)
func (c *Cursor) activate(started []ObjectID, t Tick) {
	// Activation order is (Start, ID): one tick's arrivals are already
	// ascending, a step over skipped ticks may interleave several.
	fresh := append(c.fresh[:0], started...)
	slices.Sort(fresh)
	c.fresh = fresh
	n, k := len(c.ids), len(fresh)
	c.ids = slices.Grow(c.ids, k)[:n+k]
	c.at = slices.Grow(c.at, k)[:n+k]
	c.pts = slices.Grow(c.pts, k)[:n+k]
	i, j := n-1, k-1
	for w := n + k - 1; j >= 0; w-- {
		if i >= 0 && c.ids[i] > fresh[j] {
			c.ids[w], c.at[w] = c.ids[i], c.at[i]
			i--
		} else {
			c.ids[w], c.at[w] = fresh[j], c.plan.trajs[fresh[j]].sampleIndex(t)
			j--
		}
	}
}

// SnapshotAt collects the (interpolated) locations of every object alive at
// tick t — the Ot of Algorithm 1. The returned slices are parallel: ids[i]
// is the object whose location is pts[i]. It is the one-tick case of a
// Cursor (a seek, which needs no activation order); a scan over many ticks
// should sweep instead.
func (db *DB) SnapshotAt(t Tick) (ids []ObjectID, pts []geom.Point) {
	c := Cursor{plan: &SweepPlan{trajs: db.trajs}}
	return c.At(t)
}
