package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// absent marks a missing sample in test position tables.
var absent = geom.Pt(math.NaN(), math.NaN())

// runCMC answers the query with serial CMC — the reference the other
// algorithms and execution strategies are compared against.
func runCMC(db *model.DB, p Params) (Result, error) {
	return NewQuery(WithParams(p), WithCMC()).Run(context.Background(), db)
}

// runQuery answers the query under the given options (CuTS* with the
// automatic δ/λ guidelines unless they say otherwise) and returns the run's
// statistics alongside the result.
func runQuery(db *model.DB, p Params, opts ...Option) (Result, Stats, error) {
	var st Stats
	opts = append([]Option{WithParams(p), WithStats(&st)}, opts...)
	res, err := NewQuery(opts...).Run(context.Background(), db)
	return res, st, err
}

// buildDB constructs a database from per-object position rows: rows[i][j] is
// object i's position at tick startTick+j, with `absent` producing a
// sampling gap (no sample recorded). Leading/trailing absents shrink the
// object's lifespan.
func buildDB(t *testing.T, startTick model.Tick, rows ...[]geom.Point) *model.DB {
	t.Helper()
	db := model.NewDB()
	for _, row := range rows {
		var samples []model.Sample
		for j, p := range row {
			if math.IsNaN(p.X) {
				continue
			}
			samples = append(samples, model.Sample{T: startTick + model.Tick(j), P: p})
		}
		tr, err := model.NewTrajectory("", samples)
		if err != nil {
			t.Fatalf("buildDB: %v", err)
		}
		db.Add(tr)
	}
	return db
}
