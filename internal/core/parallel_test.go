package core

import (
	"context"
	"testing"

	"repro/internal/geom"
)

// The pipeline primitives themselves are unit-tested in internal/par, and
// every worker count's answer is pinned to the oracle by harness_test.go;
// this file keeps refinement's degenerate inputs.

func TestRefineParallelEdgeCases(t *testing.T) {
	db := buildDB(t, 0,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0)},
		[]geom.Point{geom.Pt(0, 0.5), geom.Pt(1, 0.5), geom.Pt(2, 0.5), geom.Pt(3, 0.5)},
	)
	p := Params{M: 2, K: 3, Eps: 1}
	refine := func(cands []Candidate, workers int) Result {
		var all []Convoy
		err := refineScan(context.Background(), db, p, cands, workers, DefaultChurnThreshold, nil, func(_ int, raw []Convoy) bool {
			all = append(all, raw...)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return Canonicalize(all)
	}
	// No candidates.
	if got := refine(nil, 8); len(got) != 0 {
		t.Errorf("no candidates produced %v", got)
	}
	// One candidate with more workers than work.
	c := Candidate{Objects: ids(0, 1), Support: ids(0, 1), Start: 0, End: 3}
	got := refine([]Candidate{c}, 16)
	if len(got) != 1 || got[0].Lifetime() != 4 {
		t.Errorf("single candidate refine = %v", got)
	}
	// Duplicated candidates across many workers still canonicalize.
	got = refine([]Candidate{c, c, c, c, c}, 3)
	if len(got) != 1 {
		t.Errorf("duplicate candidates refine = %v", got)
	}
}
