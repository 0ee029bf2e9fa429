// Package flock implements the disc-based flock pattern (Gudmundsson & van
// Kreveld; Al-Naymat et al.) that the paper contrasts with convoys: a flock
// is a group of at least m objects that stay together within a circular
// region of radius r during at least k consecutive time points.
//
// The package exists to reproduce the lossy-flock problem of Figure 1 — a
// fixed-radius disc clips members that a density-based convoy captures — and
// to serve as a baseline in the examples. Discovery is exact: at every tick
// the maximal disc groups are enumerated from the classic O(n³) candidate-
// center construction (each maximal group of points coverable by a radius-r
// disc admits a cover whose boundary passes through one or two of the
// points), and groups are chained across ticks with the same
// intersection-based candidate machinery as CMC.
package flock

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/model"
)

// Params are the flock query parameters.
type Params struct {
	// M is the minimum number of objects in a flock.
	M int
	// K is the minimum lifetime in consecutive ticks.
	K int64
	// R is the disc radius: at every tick all members must fit in some
	// disc of radius R.
	R float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.M < 1 || p.K < 1 || p.R < 0 {
		return errors.New("flock: m and k must be ≥ 1 and r ≥ 0")
	}
	return nil
}

// Flock is one answer: a fixed group of objects and the inclusive tick
// interval during which they stayed within a radius-R disc.
type Flock struct {
	Objects    []model.ObjectID
	Start, End model.Tick
}

// Lifetime returns the number of ticks the flock spans.
func (f Flock) Lifetime() int64 { return int64(f.End-f.Start) + 1 }

// String renders the flock compactly.
func (f Flock) String() string {
	return fmt.Sprintf("flock%v[%d,%d]", f.Objects, f.Start, f.End)
}

// discGroupsAt enumerates the maximal groups of points (by index) that fit
// in some radius-r disc. Candidate disc centers: every point itself and the
// two centers of radius-r circles through each pair of points at distance
// ≤ 2r. Dominated (subset) groups are removed.
func discGroupsAt(pts []geom.Point, r float64) [][]int {
	n := len(pts)
	if n == 0 {
		return nil
	}
	var centers []geom.Point
	centers = append(centers, pts...)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := geom.D(pts[i], pts[j])
			if d > 2*r || d == 0 {
				continue
			}
			mid := pts[i].Lerp(pts[j], 0.5)
			// Height of the circumcenter above the chord midpoint.
			h := math.Sqrt(math.Max(0, r*r-d*d/4))
			// Unit normal to the chord.
			nx, ny := -(pts[j].Y-pts[i].Y)/d, (pts[j].X-pts[i].X)/d
			centers = append(centers,
				geom.Pt(mid.X+nx*h, mid.Y+ny*h),
				geom.Pt(mid.X-nx*h, mid.Y-ny*h),
			)
		}
	}
	// Tiny slack absorbs the floating-point error of constructed centers.
	rr := r * (1 + 1e-12)
	seen := map[string]bool{}
	var groups [][]int
	for _, c := range centers {
		var g []int
		for i, p := range pts {
			if geom.D(c, p) <= rr {
				g = append(g, i)
			}
		}
		if len(g) == 0 {
			continue
		}
		key := fmt.Sprint(g)
		if !seen[key] {
			seen[key] = true
			groups = append(groups, g)
		}
	}
	// Drop subset groups.
	sort.Slice(groups, func(i, j int) bool { return len(groups[i]) > len(groups[j]) })
	var maximal [][]int
	for _, g := range groups {
		sub := false
		for _, m := range maximal {
			if isSubset(g, m) {
				sub = true
				break
			}
		}
		if !sub {
			maximal = append(maximal, g)
		}
	}
	return maximal
}

func isSubset(a, b []int) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// Discover answers the flock query over the database and returns all
// maximal flocks, sorted by (Start, End).
func Discover(db *model.DB, p Params) ([]Flock, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lo, hi, ok := db.TimeRange()
	if !ok {
		return nil, nil
	}

	type cand struct {
		objs       []model.ObjectID
		start, end model.Tick
	}
	var out []Flock
	report := func(c *cand) {
		if int64(c.end-c.start)+1 >= p.K {
			out = append(out, Flock{Objects: c.objs, Start: c.start, End: c.end})
		}
	}
	var live []*cand
	cur := db.Sweep(nil).Cursor()
	for i, n := int64(0), model.TickSpan(lo, hi); i < n; i++ {
		t := lo + model.Tick(i)
		ids, pts := cur.At(t)
		var groups [][]model.ObjectID
		if len(ids) >= p.M {
			for _, g := range discGroupsAt(pts, p.R) {
				if len(g) < p.M {
					continue
				}
				objs := make([]model.ObjectID, len(g))
				for i, idx := range g {
					objs[i] = ids[idx]
				}
				groups = append(groups, objs)
			}
		}
		next := make([]*cand, 0, len(groups))
		index := map[string]int{}
		add := func(objs []model.ObjectID, start model.Tick) {
			key := fmt.Sprint(objs)
			if i, dup := index[key]; dup {
				if start < next[i].start {
					next[i].start = start
				}
				return
			}
			index[key] = len(next)
			next = append(next, &cand{objs: objs, start: start, end: t})
		}
		for _, v := range live {
			survived := false
			for _, g := range groups {
				inter := intersect(v.objs, g)
				if len(inter) < p.M {
					continue
				}
				add(inter, v.start)
				if len(inter) == len(v.objs) {
					survived = true
				}
			}
			if !survived {
				report(v)
			}
		}
		for _, g := range groups {
			add(g, t)
		}
		live = next
	}
	for _, v := range live {
		report(v)
	}
	out = dropDominated(out)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End < out[j].End
	})
	return out, nil
}

func intersect(a, b []model.ObjectID) []model.ObjectID {
	var outp []model.ObjectID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			outp = append(outp, a[i])
			i++
			j++
		}
	}
	return outp
}

// dropDominated removes flocks strictly covered by another flock in both
// object and time dimensions. Exact duplicates cannot occur: the per-tick
// candidate sets are deduplicated by object set.
func dropDominated(fs []Flock) []Flock {
	var keep []Flock
	for i, f := range fs {
		dominated := false
		for j, g := range fs {
			if i == j {
				continue
			}
			identical := g.Start == f.Start && g.End == f.End && len(g.Objects) == len(f.Objects)
			if !identical && g.Start <= f.Start && f.End <= g.End && isSubsetIDs(f.Objects, g.Objects) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, f)
		}
	}
	return keep
}

func isSubsetIDs(a, b []model.ObjectID) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}
