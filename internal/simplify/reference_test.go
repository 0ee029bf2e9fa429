package simplify

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/model"
)

// The division process as it was before the split kernels existed — the
// chord rebuilt, a division and a math.Hypot per sample per recursion level,
// tolerances in a map — kept verbatim (names prefixed) as the kernels'
// independent reference.

// refDeviation returns the deviation of sample idx from the chord between
// samples i and j under the given method: segment distance for DP/DP+,
// synchronous time-ratio distance for DP*.
func refDeviation(samples []model.Sample, i, j, idx int, m Method) float64 {
	chord := geom.Segment{A: samples[i].P, B: samples[j].P}
	if m != DPStar {
		return geom.DPL(samples[idx].P, chord)
	}
	ti, tj, t := samples[i].T, samples[j].T, samples[idx].T
	var ref geom.Point
	if tj == ti {
		ref = samples[i].P
	} else {
		f := float64(t-ti) / float64(tj-ti)
		ref = samples[i].P.Lerp(samples[j].P, f)
	}
	return geom.D(samples[idx].P, ref)
}

// refSplitPoint scans the interior of [i, j] and returns
//
//	maxDist — the maximum deviation of any interior sample, and
//	split   — the index to split at (-1 when maxDist ≤ delta, i.e., the
//	          range becomes a final segment).
//
// DP and DP* split at the farthest point; DP+ splits at the point closest to
// the middle among those exceeding delta (Section 6.1).
func refSplitPoint(samples []model.Sample, i, j int, delta float64, m Method) (maxDist float64, split int) {
	split = -1
	if m == DPPlus {
		mid := (i + j) / 2
		bestMidDist := j - i // larger than any |idx−mid| in range
		for idx := i + 1; idx < j; idx++ {
			d := refDeviation(samples, i, j, idx, m)
			if d > maxDist {
				maxDist = d
			}
			if d > delta {
				md := idx - mid
				if md < 0 {
					md = -md
				}
				if md < bestMidDist {
					bestMidDist = md
					split = idx
				}
			}
		}
		return maxDist, split
	}
	for idx := i + 1; idx < j; idx++ {
		d := refDeviation(samples, i, j, idx, m)
		if d > maxDist {
			maxDist = d
			if d > delta {
				split = idx
			}
		}
	}
	if maxDist <= delta {
		split = -1
	}
	return maxDist, split
}

// refSimplify reduces tr to a simplified trajectory with tolerance delta using
// the chosen method. delta must be ≥ 0; the output always keeps the first
// and last sample, and each produced segment records its actual tolerance.
func refSimplify(tr *model.Trajectory, delta float64, m Method) *Trajectory {
	st := &Trajectory{Object: tr.ID, Orig: tr, Method: m}
	n := tr.Len()
	if n == 1 {
		// Degenerate but representable: a stationary zero-duration segment.
		s := tr.Samples[0]
		st.Keep = []int{0}
		st.Segments = []Segment{{
			TimedSegment: geom.TimedSeg(s.P, s.P, float64(s.T), float64(s.T)),
			StartIdx:     0,
			EndIdx:       0,
		}}
		return st
	}

	samples := tr.Samples
	type frame struct{ i, j int }
	// Process ranges in order so kept indices come out sorted: a stack where
	// we always push the right half first.
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{0, n - 1})
	keep := []int{0}
	segTol := make(map[[2]int]float64)
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fr.j <= fr.i+1 {
			keep = append(keep, fr.j)
			segTol[[2]int{fr.i, fr.j}] = 0
			continue
		}
		maxDist, split := refSplitPoint(samples, fr.i, fr.j, delta, m)
		if split < 0 {
			keep = append(keep, fr.j)
			segTol[[2]int{fr.i, fr.j}] = maxDist
			continue
		}
		stack = append(stack, frame{split, fr.j})
		stack = append(stack, frame{fr.i, split})
	}

	st.Keep = keep
	st.Segments = make([]Segment, 0, len(keep)-1)
	for s := 0; s+1 < len(keep); s++ {
		i, j := keep[s], keep[s+1]
		tol := segTol[[2]int{i, j}]
		a, b := samples[i], samples[j]
		st.Segments = append(st.Segments, Segment{
			TimedSegment: geom.TimedSeg(a.P, b.P, float64(a.T), float64(b.T)),
			StartIdx:     i,
			EndIdx:       j,
			Tolerance:    tol,
		})
		if tol > st.Tolerance {
			st.Tolerance = tol
		}
	}
	return st
}

// refSplitDistances runs the division process with δ = 0 and returns the split
// deviation recorded at every division step, sorted ascending. This is the
// tolerance profile the δ-selection guideline of Section 7.4 inspects for
// its largest-gap heuristic. Collinear interior points terminate ranges
// early (their deviation is 0), exactly as a δ = 0 run of the real
// algorithm would.
func refSplitDistances(tr *model.Trajectory, m Method) []float64 {
	n := tr.Len()
	if n < 3 {
		return nil
	}
	samples := tr.Samples
	var dists []float64
	type frame struct{ i, j int }
	stack := []frame{{0, n - 1}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fr.j <= fr.i+1 {
			continue
		}
		maxDist, split := refSplitPoint(samples, fr.i, fr.j, 0, m)
		if split < 0 {
			continue
		}
		dists = append(dists, maxDist)
		stack = append(stack, frame{split, fr.j})
		stack = append(stack, frame{fr.i, split})
	}
	sort.Float64s(dists)
	return dists
}

// sortedSplitDistances is AppendSplitDistances in ascending order, the
// reference's.
func sortedSplitDistances(tr *model.Trajectory, m Method, below float64) []float64 {
	dists := AppendSplitDistances(nil, tr, m, below)
	sort.Float64s(dists)
	return dists
}

// sameSimplification fails unless got is bit for bit what the reference
// division produces.
func sameSimplification(t *testing.T, got, want *Trajectory) {
	t.Helper()
	if !reflect.DeepEqual(got.Keep, want.Keep) {
		t.Fatalf("Keep differs: %d kept, reference %d", len(got.Keep), len(want.Keep))
	}
	if len(got.Segments) != len(want.Segments) {
		t.Fatalf("%d segments, reference %d", len(got.Segments), len(want.Segments))
	}
	for i := range got.Segments {
		if segmentBits(got.Segments[i]) != segmentBits(want.Segments[i]) {
			t.Fatalf("segment %d = %+v, reference %+v", i, got.Segments[i], want.Segments[i])
		}
	}
	if math.Float64bits(got.Tolerance) != math.Float64bits(want.Tolerance) {
		t.Fatalf("Tolerance = %v, reference %v", got.Tolerance, want.Tolerance)
	}
}

// segmentBits is sg as bits, so that a NaN coordinate equals itself.
func segmentBits(sg Segment) [9]uint64 {
	f := math.Float64bits
	return [9]uint64{f(sg.A.X), f(sg.A.Y), f(sg.B.X), f(sg.B.Y), f(sg.T0), f(sg.T1),
		uint64(sg.StartIdx), uint64(sg.EndIdx), f(sg.Tolerance)}
}

// TestSplitKernelMatchesReference holds the kernels to the reference bit for
// bit on the four paper profiles: the squared comparison may only ever pick
// another split where two deviations tie within rounding, and generated
// data has no such tie.
func TestSplitKernelMatchesReference(t *testing.T) {
	for _, p := range datagen.AllProfiles(0.3, 7) {
		db := p.Generate()
		for _, m := range []Method{DP, DPPlus, DPStar} {
			for _, delta := range []float64{0, 1, 5, 50, 279} {
				for _, tr := range db.Trajectories() {
					sameSimplification(t, Simplify(tr, delta, m), refSimplify(tr, delta, m))
				}
			}
			for _, tr := range db.Trajectories() {
				want := refSplitDistances(tr, m)
				if got := sortedSplitDistances(tr, m, math.Inf(1)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v: the split-deviation profile differs from the reference (%d vs %d values)", p.Name, m, len(got), len(want))
				}
				if len(want) > 1 {
					cut := want[len(want)/2]
					below := want[:sort.SearchFloat64s(want, cut)]
					if got := sortedSplitDistances(tr, m, cut); len(got) != len(below) || (len(got) > 0 && !reflect.DeepEqual(got, below)) {
						t.Fatalf("%s %v: the split-deviation profile below %g = %d values, reference %d", p.Name, m, cut, len(got), len(below))
					}
				}
			}
		}
	}
}

// soundSimplification asserts the contract of Definition 4 on st: kept
// indices ascend strictly from 0 to n−1 with one segment between each two,
// and every sample deviates from its segment, under the method's own
// distance, by no more than the segment's recorded tolerance (which no
// tolerance the trajectory reports falls below) — up to slack, the rounding
// of coordinates of the samples' magnitude.
func soundSimplification(t *testing.T, st *Trajectory, slack float64) {
	t.Helper()
	samples, m := st.Orig.Samples, st.Method
	if st.Keep[0] != 0 || st.Keep[len(st.Keep)-1] != len(samples)-1 {
		t.Fatalf("endpoints not kept: %v", st.Keep)
	}
	if len(samples) > 1 && len(st.Segments) != len(st.Keep)-1 {
		t.Fatalf("%d segments for %d kept samples", len(st.Segments), len(st.Keep))
	}
	for si := 1; si < len(st.Keep); si++ {
		if st.Keep[si] <= st.Keep[si-1] {
			t.Fatalf("kept indices not strictly ascending: %v", st.Keep)
		}
		sg := st.Segments[si-1]
		if sg.StartIdx != st.Keep[si-1] || sg.EndIdx != st.Keep[si] {
			t.Fatalf("segment %d spans [%d,%d], kept %v", si-1, sg.StartIdx, sg.EndIdx, st.Keep)
		}
		if sg.Tolerance > st.Tolerance {
			t.Fatalf("segment tolerance %g above δ(o') = %g", sg.Tolerance, st.Tolerance)
		}
		for idx := sg.StartIdx; idx <= sg.EndIdx; idx++ {
			if dev := refDeviation(samples, sg.StartIdx, sg.EndIdx, idx, m); dev > sg.Tolerance+slack {
				t.Fatalf("%v: sample %d deviates %g from its segment, recorded tolerance %g", m, idx, dev, sg.Tolerance)
			}
		}
	}
}

// TestSplitKernelOverflow: where the squared deviations overflow (coordinates
// beyond 1e154) the squares cannot rank the samples, and the kernels divide
// such a range rather than close it on the first sample's word. The result
// is another division than the reference's, and as sound.
func TestSplitKernelOverflow(t *testing.T) {
	tr := mustTraj(t, s(0, 0, 0), s(1, 1e200, 3e200), s(2, 2e200, -7e200), s(5, 3e200, 1e200), s(6, 4e200, 0))
	for _, m := range []Method{DP, DPPlus, DPStar} {
		for _, delta := range []float64{0, 2e200, 1e201} {
			st := Simplify(tr, delta, m)
			soundSimplification(t, st, 1e188)
			if st.Tolerance > delta {
				t.Errorf("%v: δ(o') = %g above δ = %g", m, st.Tolerance, delta)
			}
			if m == DPPlus { // a root per sample: nothing is squared
				sameSimplification(t, st, refSimplify(tr, delta, m))
			}
		}
	}
}

// ulpsApart reports whether a and b lie within n units in the last place of
// the larger.
func ulpsApart(a, b float64, n int) bool {
	hi := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= float64(n)*(math.Nextafter(hi, math.Inf(1))-hi)
}

// tieUlps is how far apart two deviations may lie for the squared and the
// rooted comparison to rank them differently: each side carries a few
// roundings (two products and a sum against math.Hypot's own).
const tieUlps = 4

// matchesReferenceOnRanges walks the division of samples as the kernels make
// it and checks every visited range against the reference scan. It returns
// false when some range was decided by a tie (either split is then a valid
// Douglas–Peucker division, but the two simplifications may differ from
// there on) and fails the test on any other difference.
func matchesReferenceOnRanges(t *testing.T, samples []model.Sample, delta float64, m Method) bool {
	exact := true
	sc := &scratch{samples: samples}
	stack := []frame{{0, len(samples) - 1}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fr.j <= fr.i+1 {
			continue
		}
		gd, gs := sc.splitPoint(fr.i, fr.j, delta, m)
		wd, ws := refSplitPoint(samples, fr.i, fr.j, delta, m)
		if gd != wd || gs != ws {
			exact = false
			if m == DPPlus {
				t.Fatalf("DP+ range [%d,%d] δ=%g: (%v, %d), reference (%v, %d)", fr.i, fr.j, delta, gd, gs, wd, ws)
			}
			if !ulpsApart(gd, wd, tieUlps) {
				t.Fatalf("%v range [%d,%d] δ=%g: max deviation %v, reference %v", m, fr.i, fr.j, delta, gd, wd)
			}
			if gs >= 0 && ws >= 0 && !ulpsApart(refDeviation(samples, fr.i, fr.j, gs, m), refDeviation(samples, fr.i, fr.j, ws, m), tieUlps) {
				t.Fatalf("%v range [%d,%d] δ=%g: split %d, reference %d, and their deviations do not tie", m, fr.i, fr.j, delta, gs, ws)
			}
		}
		if gs >= 0 {
			stack = append(stack, frame{gs, fr.j}, frame{fr.i, gs})
		}
	}
	return exact
}

// FuzzSimplify decodes the input into a short trajectory built to be hard on
// a split scan — one to three samples, runs of collinear and of coincident
// points, irregular ticks, coordinates scaled to 1e-12 or 1e12 — and asserts
// the soundness contract of Definition 4 (kept indices ascend strictly from
// 0 to n−1; every sample deviates from its segment, under the method's own
// distance, by no more than the segment's recorded tolerance, and that by no
// more than δ) and equality with the reference, except where two deviations
// tie within rounding.
func FuzzSimplify(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3})
	f.Add([]byte{1, 0, 2, 5, 9, 2, 200, 3})
	f.Add([]byte{5, 40, 2, 10, 10, 1, 0, 0, 1, 0, 0, 0, 0, 0, 2, 250, 3, 1, 0, 0})
	f.Add([]byte{2, 7, 2, 1, 1, 2, 2, 2, 2, 3, 3, 2, 255, 0, 2, 4, 4, 2, 9, 200})
	f.Add([]byte{3, 0, 2, 1, 2, 0, 0, 0, 0, 0, 0, 2, 1, 2, 1, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		head := next()
		m := Method(head % 3)
		scale := []float64{1, 1e-12, 1e12}[head/3%3]
		delta := float64(next()) / 8 * scale
		// Points live on an integer lattice (so collinear and coincident
		// samples are exactly that), scaled afterwards.
		samples := []model.Sample{{T: 0}}
		x, y, dx, dy := 0.0, 0.0, 1.0, 0.0
		tick := model.Tick(0)
		for len(data) > 0 && len(samples) < 48 {
			op := next()
			switch op % 3 {
			case 0: // coincident with the previous sample
			case 1: // one more step along the previous direction
				x, y = x+dx, y+dy
			default:
				dx, dy = float64(int8(next())), float64(int8(next()))
				x, y = x+dx, y+dy
			}
			tick += 1 + model.Tick(op/3%8)*model.Tick(op/3%8)
			samples = append(samples, model.Sample{T: tick, P: geom.Pt(x*scale, y*scale)})
		}
		tr, err := model.NewTrajectory("f", samples)
		if err != nil {
			t.Fatal(err)
		}
		maxAbs := 0.0
		for _, sm := range samples {
			maxAbs = math.Max(maxAbs, math.Max(math.Abs(sm.P.X), math.Abs(sm.P.Y)))
		}
		slack := 1e-12 * maxAbs // ≤ 1e-9 at this lattice's unit scale

		st := Simplify(tr, delta, m)
		soundSimplification(t, st, slack)
		if st.Tolerance > delta+slack {
			t.Fatalf("δ(o') = %g above δ = %g", st.Tolerance, delta)
		}

		if len(samples) < 2 {
			return
		}
		if matchesReferenceOnRanges(t, samples, delta, m) {
			sameSimplification(t, st, refSimplify(tr, delta, m))
		}
		if matchesReferenceOnRanges(t, samples, 0, m) {
			if got, want := sortedSplitDistances(tr, m, math.Inf(1)), refSplitDistances(tr, m); len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("split deviations = %v, reference %v", got, want)
			}
		}
	})
}
