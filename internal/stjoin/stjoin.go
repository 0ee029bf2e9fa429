// Package stjoin implements the close-pair spatio-temporal join of the
// paper's Section 2.3: given trajectory sets P1 and P2, a distance bound e
// and a time interval τ, report every object pair (o1, o2) ∈ P1 × P2 whose
// distance D_τ(o1, o2) drops to e or below at some time point in τ.
//
// The paper positions this operation as the pairwise cousin of the convoy
// query — joins return *pairs*, convoys return *sets with lifetimes* — and
// convoy processing is strictly more expensive. The join is implemented as
// a time sweep with a uniform-grid spatial hash per tick (the classic
// plane-sweep evaluation strategy of Arumugam/Jermaine and Zhou et al.),
// with linear interpolation for missing samples so its distance semantics
// match the convoy algorithms exactly.
package stjoin

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/model"
)

// Pair is one join answer: two object IDs and the first tick at which they
// were within the query distance.
type Pair struct {
	A, B  model.ObjectID // A from the left input, B from the right input
	First model.Tick     // earliest tick in the window with D ≤ e
}

// String renders the pair compactly.
func (p Pair) String() string { return fmt.Sprintf("(o%d,o%d)@%d", p.A, p.B, p.First) }

// Window restricts a join to a tick interval. The zero value means "the
// whole common time domain".
type Window struct {
	Lo, Hi model.Tick
	// Limited reports whether Lo/Hi are meaningful.
	Limited bool
}

// Full returns the unrestricted window.
func Full() Window { return Window{} }

// Between returns the window [lo, hi].
func Between(lo, hi model.Tick) Window { return Window{Lo: lo, Hi: hi, Limited: true} }

// ErrBadWindow is returned for windows with Lo > Hi.
var ErrBadWindow = errors.New("stjoin: window lo > hi")

// CloseJoin reports every pair (a ∈ left, b ∈ right) that comes within e at
// some tick of the window, using interpolated positions. When left and
// right are the same database the join is a self-join and mirrored/self
// pairs are suppressed (a < b). Pairs are sorted by (A, B). e must be ≥ 0.
func CloseJoin(left, right *model.DB, e float64, w Window) ([]Pair, error) {
	if e < 0 {
		return nil, fmt.Errorf("stjoin: negative distance %g", e)
	}
	if w.Limited && w.Lo > w.Hi {
		return nil, ErrBadWindow
	}
	lo1, hi1, ok1 := left.TimeRange()
	lo2, hi2, ok2 := right.TimeRange()
	if !ok1 || !ok2 {
		return nil, nil
	}
	lo, hi := maxTick(lo1, lo2), minTick(hi1, hi2)
	if w.Limited {
		lo, hi = maxTick(lo, w.Lo), minTick(hi, w.Hi)
	}
	if lo > hi {
		return nil, nil
	}
	self := left == right

	type key struct{ a, b model.ObjectID }
	found := map[key]model.Tick{}
	cell := e
	if cell <= 0 {
		cell = 1
	}
	lcur := left.Sweep(nil).Cursor()
	var rcur *model.Cursor
	if !self {
		rcur = right.Sweep(nil).Cursor()
	}
	for i, n := int64(0), model.TickSpan(lo, hi); i < n; i++ {
		t := lo + model.Tick(i)
		ids, pts := lcur.At(t)
		if len(ids) == 0 {
			continue
		}
		idx := grid.NewPointIndex(pts, cell)
		var buf []int
		probe := func(b model.ObjectID, p geom.Point) {
			buf = idx.Within(p, e, buf[:0])
			for _, i := range buf {
				a := ids[i]
				if self && a >= b {
					continue // unordered pairs once, no self-pairs
				}
				k := key{a, b}
				if _, seen := found[k]; !seen {
					found[k] = t
				}
			}
		}
		if self {
			for i, id := range ids {
				probe(id, pts[i])
			}
		} else {
			rids, rpts := rcur.At(t)
			for i, id := range rids {
				probe(id, rpts[i])
			}
		}
	}
	out := make([]Pair, 0, len(found))
	for k, first := range found {
		out = append(out, Pair{A: k.a, B: k.b, First: first})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out, nil
}

// CloseSelfJoin reports every unordered object pair of the database that
// comes within e at some tick of the window.
func CloseSelfJoin(db *model.DB, e float64, w Window) ([]Pair, error) {
	return CloseJoin(db, db, e, w)
}

func maxTick(a, b model.Tick) model.Tick {
	if a > b {
		return a
	}
	return b
}

func minTick(a, b model.Tick) model.Tick {
	if a < b {
		return a
	}
	return b
}
