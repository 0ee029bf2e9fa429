package flock

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
)

// Cross-model containment property: every flock with disc radius r is a
// clique at distance 2r at each of its ticks (all members pairwise within
// the disc's diameter), hence density-connected at e = 2r — so the convoy
// answer for (m, k, e = 2r) must contain a convoy that dominates it. This
// pins the paper's Section 1 relationship between the two patterns: convoys
// generalize flocks, never the other way around.
func TestPropEveryFlockInsideSomeConvoy(t *testing.T) {
	r := rand.New(rand.NewSource(606))
	for iter := 0; iter < 20; iter++ {
		nObj, nTicks := 3+r.Intn(4), 6+r.Intn(8)
		rows := make([][]geom.Point, nObj)
		// Anchor-following movement so flocks actually occur.
		anchor := make([]geom.Point, nTicks)
		x, y := r.Float64()*10, r.Float64()*10
		for i := range anchor {
			x += r.Float64()*2 - 1
			y += r.Float64()*2 - 1
			anchor[i] = geom.Pt(x, y)
		}
		for o := range rows {
			row := make([]geom.Point, nTicks)
			ox, oy := r.Float64()*3, r.Float64()*3
			for i := range row {
				if r.Float64() < 0.2 {
					ox, oy = r.Float64()*6, r.Float64()*6 // drift to a new offset
				}
				row[i] = geom.Pt(anchor[i].X+ox, anchor[i].Y+oy)
			}
			rows[o] = row
		}
		db := buildDB(t, rows...)

		m := 2
		k := int64(2 + r.Intn(3))
		radius := 1 + r.Float64()*2
		flocks, err := Discover(db, Params{M: m, K: k, R: radius})
		if err != nil {
			t.Fatal(err)
		}
		if len(flocks) == 0 {
			continue
		}
		convoys, err := core.NewQuery(core.WithParams(core.Params{M: m, K: k, Eps: 2 * radius}), core.WithCMC()).Run(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range flocks {
			covered := false
			for _, c := range convoys {
				if c.Start <= f.Start && f.End <= c.End && subsetIDs(f.Objects, c.Objects) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("iter %d: flock %v not inside any convoy (e=2r=%g):\n%v",
					iter, f, 2*radius, convoys)
			}
		}
	}
}

func subsetIDs(a, b []model.ObjectID) bool {
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
