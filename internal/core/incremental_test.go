package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// churnWalkDB builds a database of n random walkers over [0, ticks) where
// each object moves each tick with probability moveProb (non-movers keep
// bit-identical positions — the situation the incremental engine exploits).
func churnWalkDB(t *testing.T, seed int64, n, ticks int, moveProb float64) *model.DB {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rows := make([][]geom.Point, n)
	for o := range rows {
		rows[o] = make([]geom.Point, ticks)
		p := geom.Pt(r.Float64()*60, r.Float64()*60)
		for i := 0; i < ticks; i++ {
			if i > 0 && r.Float64() < moveProb {
				p = geom.Pt(p.X+r.NormFloat64(), p.Y+r.NormFloat64())
			}
			rows[o][i] = p
		}
	}
	return buildDB(t, 0, rows...)
}
