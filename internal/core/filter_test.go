package core

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/simplify"
)

// filterGolden is one row of TestFilterCandidatesUnchanged's record: what
// the guidelines chose and what the filter produced for one paper profile
// (scale 0.3, seed 7) under one variant. digest is the SHA-256 of the
// candidate list — Objects, Support, Start, End, in order — as candidateText
// renders it.
type filterGolden struct {
	profile string
	variant Variant
	delta   float64
	lambda  int64
	count   int
	digest  string
}

// filterGoldens pins what the filter hands refinement at scale 0.3, seed 7,
// where no other test looks. A row is judged as well as frozen: the test
// also requires every oracle convoy to lie inside one of the row's
// candidates (§5's superset property), so a row is re-recorded from what the
// test prints only once the oracle accepts the new list. Truck's CuTS row
// and the CuTS and CuTS+ rows of Car and Taxi were last re-recorded when the
// neighborhood predicate became symmetric (every time-overlapping segment
// pair, tested once per polyline pair); the others predate the sweep-driven
// filter.
var filterGoldens = []filterGolden{
	{"Truck", VariantCuTS, 4.362966614589701, 2, 57, "05327c2fb6216b21cf0ac488215c9a70db3cc1cb7e57ae99ddd294ca3112bb28"},
	{"Truck", VariantCuTSPlus, 4.362966614589701, 2, 59, "ad8989c51a98bd0781944e220960759564bc68f31bd1edd9922d64755be1dc88"},
	{"Truck", VariantCuTSStar, 4.362966614589701, 2, 59, "41644eca4319b3a0bc12ca1a66af1bff8923e66ddfc62beb4916523712b22979"},
	{"Cattle", VariantCuTS, 233.29957543259687, 54, 116, "6b1b58fb607442ff4bd56a6e7b5aca9cada35e4f09e20c367c4022a754f91729"},
	{"Cattle", VariantCuTSPlus, 233.29957543259687, 54, 114, "aeecdf963abdac61ffe9a529d49ae158c45ad766fe0ad86004aaeed515db8db7"},
	{"Cattle", VariantCuTSStar, 233.29957543259687, 54, 92, "d7b74001511db0f995635e355bf767d54fdfbb97a526b36d30d82497899e894c"},
	{"Car", VariantCuTS, 40.26148970773445, 9, 133, "1c364fef60f8cae7a5ea479ae0233a28241ae2b56ddffdd3b02d42ca13e7e6a7"},
	{"Car", VariantCuTSPlus, 40.26148970773445, 11, 185, "6f31fe07d0ff5b36718091898ec658457cf78538a9c3f982fce065e916d9774a"},
	{"Car", VariantCuTSStar, 40.26148970773445, 9, 9, "8ab2110240fea653fb16a80e4ff4ce7bf6da46890032b5bd8c00bec32690ef5b"},
	{"Taxi", VariantCuTS, 15.680966182657388, 14, 7, "0e0086afc8b8a6a82cfbd2897dded80ef7773e0a9d5a5cf321a481d503943609"},
	{"Taxi", VariantCuTSPlus, 15.680966182657388, 19, 63, "f242d2bce8d624ded110cb986960caf319e1618be80900e262ee08de3e0df6a7"},
	{"Taxi", VariantCuTSStar, 15.680966182657388, 15, 2, "8749a7f1d3bb750c193983cc729a63024b00d7e5492233191bfb32780c53d2f3"},
}

var variantIdent = map[Variant]string{VariantCuTS: "VariantCuTS", VariantCuTSPlus: "VariantCuTSPlus", VariantCuTSStar: "VariantCuTSStar"}

func candidateText(cands []Candidate) string {
	var b []byte
	for _, c := range cands {
		b = fmt.Appendf(b, "%v %v %d %d\n", c.Objects, c.Support, c.Start, c.End)
	}
	return string(b)
}

// TestFilterCandidatesUnchanged: the sweep-driven, scratch-reusing filter
// hands refinement the recorded candidates — same δ, same λ, same list in
// the same order — serial and on two and four workers (whose chunks start
// mid-domain on cold scratches), and every oracle convoy lies in one of
// them: objects within its support, interval within its window.
func TestFilterCandidatesUnchanged(t *testing.T) {
	var got []filterGolden
	for _, prof := range datagen.AllProfiles(0.3, 7) {
		db := prof.Generate()
		p := Params{M: prof.M, K: prof.K, Eps: prof.Eps}
		want := oracleAnswer(db, p)
		delta := ComputeDelta(db, p.Eps)
		for _, v := range []Variant{VariantCuTS, VariantCuTSPlus, VariantCuTSStar} {
			sts := simplifyAll(db, delta, v.SimplifyMethod())
			fc := FilterConfig{Lambda: ComputeLambda(db, sts, p.K), Bound: v.Bound(), Delta: delta}
			cands := Filter(db, p, sts, fc)
			for _, c := range want {
				if !slices.ContainsFunc(cands, func(cand Candidate) bool {
					return cand.Start <= c.Start && c.End <= cand.End && subsetSorted(c.Objects, cand.Support)
				}) {
					t.Errorf("%s %v: oracle convoy %v is in no filter candidate", prof.Name, v, c)
				}
			}
			serial := candidateText(cands)
			for _, workers := range []int{2, 4} {
				fc.Workers = workers
				if par := candidateText(Filter(db, p, sts, fc)); par != serial {
					t.Errorf("%s %v: candidates on %d workers differ from the serial filter's", prof.Name, v, workers)
				}
			}
			got = append(got, filterGolden{prof.Name, v, delta, fc.Lambda,
				len(cands), fmt.Sprintf("%x", sha256.Sum256([]byte(serial)))})
		}
	}
	same := len(got) == len(filterGoldens)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == filterGoldens[i]
	}
	if !same {
		t.Errorf("the filter's output moved; this tree produces:")
		for _, g := range got {
			t.Logf("\t{%q, %s, %v, %d, %d, %q},", g.profile, variantIdent[g.variant], g.delta, g.lambda, g.count, g.digest)
		}
	}
}

// sweepTrajectories are simplified trajectories built to be hard on a segment
// cursor: one with sampling gaps, one single sample, one starting late, one
// ending early, one spanning the whole domain with many short segments, and
// two that share their first tick.
func sweepTrajectories(t *testing.T) []*simplify.Trajectory {
	t.Helper()
	zigzag := func(from, to, step model.Tick) []model.Sample {
		var out []model.Sample
		for tick, i := from, 0; tick <= to; tick, i = tick+step, i+1 {
			out = append(out, model.Sample{T: tick, P: geom.Pt(float64(tick), float64(i%2)*10)})
		}
		return out
	}
	var gappy []model.Sample
	for _, tick := range []model.Tick{2, 3, 4, 30, 31, 33, 70, 71, 72, 73, 110} {
		gappy = append(gappy, model.Sample{T: tick, P: geom.Pt(float64(tick), float64(tick%3)*7)})
	}
	var sts []*simplify.Trajectory
	for id, samples := range [][]model.Sample{
		gappy,
		{{T: 41, P: geom.Pt(1, 1)}},
		zigzag(77, 120, 1),
		zigzag(0, 19, 2),
		zigzag(0, 120, 1),
		zigzag(77, 95, 3),
		{{T: 0, P: geom.Pt(0, 0)}, {T: 120, P: geom.Pt(5, 5)}},
	} {
		tr, err := model.NewTrajectory(fmt.Sprint(id), samples)
		if err != nil {
			t.Fatal(err)
		}
		tr.ID = id
		sts = append(sts, simplify.Simplify(tr, 0, simplify.DPStar))
	}
	return sts
}

// TestFilterSweepMatchesSearch: for every window the segment cursor reports,
// per trajectory, exactly the segment range SegmentsOverlapping finds — over
// whole domains at several λ (one longer than the domain), from a start in
// mid-domain as a parallel chunk makes it, and across forward skips.
func TestFilterSweepMatchesSearch(t *testing.T) {
	sts := sweepTrajectories(t)
	pf := newPartitionFilter(sts, Params{M: 2}, FilterConfig{})
	check := func(c *segCursor, w0, w1 model.Tick) {
		t.Helper()
		alive := c.advance(w0, w1)
		k := 0
		for id, st := range sts {
			lo, hi := st.SegmentsOverlapping(w0, w1)
			if lo >= hi {
				continue
			}
			if k >= len(alive) || alive[k] != (aliveSegs{id, lo, hi}) {
				t.Fatalf("window [%d,%d]: cursor has %v, trajectory %d overlaps with segments [%d,%d)", w0, w1, alive, id, lo, hi)
			}
			k++
		}
		if k != len(alive) {
			t.Fatalf("window [%d,%d]: cursor keeps %v, only %d trajectories overlap", w0, w1, alive, k)
		}
	}
	const lo, hi = model.Tick(0), model.Tick(120)
	for _, lambda := range []int64{1, 3, 27, 500} {
		n := lambdaPartitions(lo, hi, lambda)
		windowAt := func(i int) (model.Tick, model.Tick) {
			w0 := lo + model.Tick(int64(i)*lambda)
			return w0, min(w0+model.Tick(lambda)-1, hi)
		}
		for _, walk := range []struct {
			name        string
			first, step int
		}{
			{"whole domain", 0, 1},
			{"from mid-domain", n / 2, 1},
			{"skipping forward", 1, 4},
			{"last window only", n - 1, 1},
		} {
			c := pf.scratch().cur
			for i := walk.first; i < n; i += walk.step {
				w0, w1 := windowAt(i)
				check(&c, w0, w1)
			}
		}
	}
	// Windows that are not λ-aligned, and one past every trajectory's end.
	c := pf.scratch().cur
	for _, w := range [][2]model.Tick{{-5, -1}, {-1, 0}, {19, 19}, {20, 40}, {41, 41}, {42, 76}, {77, 77}, {96, 119}, {120, 120}, {121, 130}} {
		check(&c, w[0], w[1])
	}
}

// TestFilterSkipsSegmentlessTrajectories: a hand-built simplified trajectory
// without segments takes no part in the filter (and cannot break the sweep's
// start order).
func TestFilterSkipsSegmentlessTrajectories(t *testing.T) {
	sts := sweepTrajectories(t)
	sts = append(sts, &simplify.Trajectory{Object: len(sts)})
	c := newPartitionFilter(sts, Params{M: 2}, FilterConfig{}).scratch().cur
	for _, a := range c.advance(0, 120) {
		if a.id == len(sts)-1 {
			t.Fatal("a trajectory without segments came alive")
		}
	}
}
