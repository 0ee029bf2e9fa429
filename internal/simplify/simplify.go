// Package simplify implements the three trajectory line-simplification
// methods used by the CuTS family (Sections 2.2, 5.1 and 6):
//
//   - DP:     the classic Douglas–Peucker algorithm — split at the point
//     farthest (in segment distance) from the chord.
//   - DPPlus: the paper's DP+ — among the points whose deviation exceeds
//     the tolerance, split at the one closest to the middle of the range,
//     balancing the divide-and-conquer recursion (Section 6.1).
//   - DPStar: the Meratnia/de By time-ratio variant DP* — deviation of a
//     point is measured against the chord position at the *same time*
//     (synchronous error), enabling the tighter D* filter bound
//     (Section 6.2).
//
// Every produced segment carries its **actual tolerance** δ(l')
// (Definition 4): the maximum deviation of the original trajectory from the
// segment over the segment's time interval. For DP/DP+ the deviation is the
// segment distance DPL; for DP* it is the synchronous time-ratio distance,
// which is what Lemma 3 requires. Actual tolerances are never larger than
// the requested δ and tighten the filter's range-search bounds (Figure 14).
//
// All implementations are iterative (explicit stack) so multi-hundred-
// thousand-point trajectories (the Cattle dataset's shape) cannot overflow
// the goroutine stack.
//
// The cost of the division process is its scan for a split point, and each
// method has one split kernel for it: segChord (DP) and syncChord (DP*) are
// a range's chord with its invariants computed once, and splitMiddle (DP+)
// scans on its own. The two farthest-point methods compare squared
// deviations and take a single exact deviation (one math.Hypot) at the
// arg-max. What that guarantees is stated on farthest: every recorded
// tolerance is the exact deviation of a real sample, and it is the range's
// maximum to within the rounding the deviation itself carries.
//
// A division scans each sample again at every level above it, so the two
// farthest-point kernels are branch-and-bound. Simplify summarises a long
// trajectory's samples in blocks of blockSize, one bounding box each; a
// range holding at least two whole blocks bounds each block's largest
// squared deviation, scans the block of the largest bound first and skips
// every block whose bound falls below the running maximum. A skipped block
// can hold neither the arg-max nor a tie with it, and ties go to the lowest
// index whatever the visiting order, so the answer is the linear scan's bit
// for bit. The bounds are sound for the *computed* deviations, not only for
// exact ones: DP*'s is exact, by the monotonicity of correctly rounded
// arithmetic (syncChord.bounds); DP's comes from the box's corners, where
// convexity puts the exact maximum, plus a slack for rounding
// (segChord.bounds). DP+ decides by every sample's own d > δ, not by a
// maximum, and keeps the linear scan, as does the δ = 0 profile
// (AppendSplitDistances), whose work is in ranges too short to prune.
//
// reference_test.go keeps the per-sample formulation the kernels replaced
// and holds them to it bit for bit; FuzzSplitPrune holds the pruned kernels
// to the linear scan.
package simplify

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/par"
)

// Method selects a simplification algorithm.
type Method int

const (
	// DP is the classic Douglas–Peucker farthest-point split.
	DP Method = iota
	// DPPlus splits at the tolerance-exceeding point closest to the middle.
	DPPlus
	// DPStar measures deviation synchronously (time-ratio) à la Meratnia.
	DPStar
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case DP:
		return "DP"
	case DPPlus:
		return "DP+"
	case DPStar:
		return "DP*"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Segment is one line segment l' of a simplified trajectory: a timed segment
// (endpoints are original samples, so they carry timestamps) plus its actual
// tolerance δ(l').
type Segment struct {
	geom.TimedSegment
	// StartIdx and EndIdx are the indices of the segment's endpoints in the
	// original trajectory's sample slice.
	StartIdx, EndIdx int
	// Tolerance is the actual tolerance δ(l') of Definition 4.
	Tolerance float64
}

// StartTick returns the first tick of the segment's time interval l'.τ.
func (sg Segment) StartTick() model.Tick { return model.Tick(sg.T0) }

// EndTick returns the last tick of the segment's time interval l'.τ.
func (sg Segment) EndTick() model.Tick { return model.Tick(sg.T1) }

// ClipTime returns the segment restricted to the time window [lo, hi],
// with endpoints moved to the segment's interpolated positions at the
// clipped instants. The window must intersect the segment's interval.
//
// Clipping preserves the DP* tolerance guarantee — the synchronous error
// D(o(t), l'(t)) ≤ δ(l') holds pointwise, so it holds on any sub-interval —
// and therefore the Lemma 3 (D*) bound stays sound on clipped segments.
// It is NOT sound for DP/DP+ tolerances: their δ(l') bounds the distance to
// the segment as a whole, and the witness point may lie outside the clipped
// span (Section 6.2's motivation for CuTS*).
func (sg Segment) ClipTime(lo, hi model.Tick) Segment {
	t0, t1 := float64(lo), float64(hi)
	if t0 < sg.T0 {
		t0 = sg.T0
	}
	if t1 > sg.T1 {
		t1 = sg.T1
	}
	out := sg
	out.TimedSegment = geom.TimedSeg(sg.PosAt(t0), sg.PosAt(t1), t0, t1)
	return out
}

// Trajectory is a simplified trajectory o': the subsequence of kept samples
// and the segments between them.
type Trajectory struct {
	// Object is the source object's ID.
	Object model.ObjectID
	// Orig points to the original trajectory (used by the refinement step).
	Orig *model.Trajectory
	// Keep holds the indices of the kept samples, ascending, always
	// including the first and last sample.
	Keep []int
	// Segments has len(Keep)−1 entries; a single-sample trajectory gets one
	// degenerate zero-duration segment so that downstream clustering can
	// still reason about the object.
	Segments []Segment
	// Tolerance is δ(o'): the maximum segment tolerance.
	Tolerance float64
	// Method records how the trajectory was simplified.
	Method Method
}

// Len returns |o'|: the number of kept points.
func (st *Trajectory) Len() int { return len(st.Keep) }

// SegmentsOverlapping returns the half-open index range [lo, hi) of segments
// whose time intervals intersect [from, to], by binary search. The filter's
// segment cursor uses it once per trajectory, to find its place, and steps
// from there.
func (st *Trajectory) SegmentsOverlapping(from, to model.Tick) (lo, hi int) {
	lo = sort.Search(len(st.Segments), func(i int) bool {
		return st.Segments[i].EndTick() >= from
	})
	hi = sort.Search(len(st.Segments), func(i int) bool {
		return st.Segments[i].StartTick() > to
	})
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// The split kernels. A range's scan needs of its chord only where it starts
// (ax, ay), how far it reaches (dx, dy) and the denominator of a sample's
// position along it — the chord's squared length under the segment distance
// of DP and DP+, its duration under the synchronous distance of DP*. The
// kernels compute those once per range and keep them in registers; a sample
// then costs a handful of multiplications and one division. Each sample's
// offset from the chord (ex, ey) comes out of the same arithmetic, in the
// same order, as geom.DPL and geom.Point.Lerp would produce it, so its
// length is bit for bit the deviation those would report.

// blockSize is how many consecutive samples share one bounding box. A
// smaller block bounds tighter but costs more bounds per range; on one
// cattle-cuts herd's DP* division (2-core machine) 16 took 7.0–8.0 ms, 32
// took 5.5–6.1, 64 took 6.0 and 128 took 6.2–7.1.
const blockSize = 32

// box is the bounding box of one block of samples.
type box struct{ minX, maxX, minY, maxY float64 }

type frame struct{ i, j int }

// keptSample is a sample the division keeps, with the actual tolerance of
// the segment that ends at it.
type keptSample struct {
	idx int
	tol float64
}

// scratch is one division's working state, pooled so that a worker reuses
// its buffers from trajectory to trajectory.
type scratch struct {
	samples []model.Sample
	// boxes bounds every full block of samples; none sends every range
	// through the linear loop.
	boxes  []box
	bounds []float64 // the pruned kernels' per-block bounds
	stack  []frame
	kept   []keptSample
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a pooled scratch set up for samples, with block boxes
// when pruned and the trajectory is long enough to have a range with two
// full interior blocks.
func getScratch(samples []model.Sample, pruned bool) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.samples = samples
	sc.boxes = sc.boxes[:0]
	if pruned && (len(samples)-1)/blockSize >= 3 {
		sc.boxes = blockBoxes(sc.boxes, samples)
	}
	return sc
}

func (sc *scratch) release() {
	sc.samples = nil
	scratchPool.Put(sc)
}

// blockBoxes appends to dst the bounding box of every full block of
// samples. A NaN coordinate makes its block's box NaN. Samples are taken
// in pairs, which halves the chains of dependent min and max operations.
func blockBoxes(dst []box, samples []model.Sample) []box {
	for lo := 0; lo+blockSize <= len(samples); lo += blockSize {
		blk := samples[lo : lo+blockSize]
		p, q := blk[0].P, blk[1].P
		b := box{min(p.X, q.X), max(p.X, q.X), min(p.Y, q.Y), max(p.Y, q.Y)}
		for k := 2; k < blockSize; k += 2 {
			p, q := blk[k].P, blk[k+1].P
			b.minX, b.maxX = min(b.minX, min(p.X, q.X)), max(b.maxX, max(p.X, q.X))
			b.minY, b.maxY = min(b.minY, min(p.Y, q.Y)), max(b.maxY, max(p.Y, q.Y))
		}
		dst = append(dst, b)
	}
	return dst
}

// splitPoint scans the interior of [i, j] and returns
//
//	maxDist — the maximum deviation of any interior sample, and
//	split   — the index to split at (-1 when maxDist ≤ delta, i.e., the
//	          range becomes a final segment).
//
// DP and DP* split at the farthest point; DP+ splits at the point closest to
// the middle among those exceeding delta (Section 6.1).
func (sc *scratch) splitPoint(i, j int, delta float64, m Method) (maxDist float64, split int) {
	switch m {
	case DPPlus:
		return splitMiddle(sc.samples, i, j, delta)
	case DPStar:
		r := farthestIn(sc, newSyncChord(sc.samples[i], sc.samples[j]), i, j)
		return farthest(r.d2, r.ex, r.ey, r.at, delta)
	default:
		r := farthestIn(sc, newSegChord(sc.samples[i].P, sc.samples[j].P), i, j)
		return farthest(r.d2, r.ex, r.ey, r.at, delta)
	}
}

// far is a farthest-point scan's running arg-max: the squared deviation,
// the offset it comes from, and the sample's index (-1 while none is
// farther than 0).
type far struct {
	d2, ex, ey float64
	at         int
}

// chord is a range's chord under one of the two farthest-point distances.
//
// scan folds samples [lo, hi) into r. A sample replaces the running arg-max
// when its squared deviation is larger, or equal at a lower index: blocks
// are visited out of order, and the rule keeps the lowest index among the
// largest, as a scan in index order does.
//
// bounds appends to dst, for every block b in [lo, hi), a bound at least
// the squared deviation scan computes for any of the block's samples — or
// NaN, which never lets the block be skipped.
type chord interface {
	scan(samples []model.Sample, lo, hi int, r far) far
	bounds(dst []float64, sc *scratch, lo, hi int) []float64
}

// farthestIn returns the arg-max of the squared deviation from c over the
// interior of [i, j]. A range with at least two full interior blocks is
// branch-and-bound: every block is bounded, the block of the largest bound
// is scanned first, then the partial blocks at both ends and the other
// blocks in index order, skipping a block whose bound is below the running
// maximum — none of its samples can be farther, or tie. A shorter range
// takes the linear loop.
func farthestIn[C chord](sc *scratch, c C, i, j int) far {
	r := far{at: -1}
	lo, hi := (i+blockSize)/blockSize, j/blockSize // the full interior blocks [lo, hi)
	if len(sc.boxes) == 0 || hi-lo < 2 {
		return c.scan(sc.samples, i+1, j, r)
	}
	samples := sc.samples
	bounds := c.bounds(sc.bounds[:0], sc, lo, hi)
	sc.bounds = bounds
	top := lo
	for b, bd := range bounds {
		if bd > bounds[top-lo] {
			top = lo + b
		}
	}
	r = c.scan(samples, top*blockSize, top*blockSize+blockSize, r)
	r = c.scan(samples, i+1, lo*blockSize, r)
	for b := lo; b < hi; b++ {
		if b != top && !(bounds[b-lo] < r.d2) {
			r = c.scan(samples, b*blockSize, b*blockSize+blockSize, r)
		}
	}
	return c.scan(samples, hi*blockSize, j, r)
}

// syncChord is the DP* chord: a sample is measured against the chord's
// position at the sample's own time.
type syncChord struct {
	ax, ay, dx, dy, dt float64
	t0                 model.Tick
}

func newSyncChord(a, b model.Sample) syncChord {
	c := syncChord{ax: a.P.X, ay: a.P.Y, dx: b.P.X - a.P.X, dy: b.P.Y - a.P.Y, dt: float64(b.T - a.T), t0: a.T}
	if c.dt == 0 { // a chord of no duration stands still at its start
		c.dx, c.dy, c.dt = 0, 0, 1
	}
	return c
}

// at is the chord's position at tick t, the one expression both scan and
// bounds evaluate.
func (c syncChord) at(t model.Tick) (x, y float64) {
	f := float64(t-c.t0) / c.dt
	return c.ax + f*c.dx, c.ay + f*c.dy
}

func (c syncChord) scan(samples []model.Sample, lo, hi int, r far) far {
	for k, s := range samples[lo:hi] {
		x, y := c.at(s.T)
		ex, ey := s.P.X-x, s.P.Y-y
		if d2 := ex*ex + ey*ey; d2 > r.d2 || d2 == r.d2 && lo+k < r.at {
			r = far{d2, ex, ey, lo + k}
		}
	}
	return r
}

// bounds takes, per axis, the larger of the distances from the box's far
// edge to the chord's near end and from its near edge to the far end, the
// chord's ends being its positions at the block's first and last tick.
// Every step of at is correctly rounded arithmetic on a tick that grows
// through the block, so a sample's computed position lies between the two
// computed ends; a rounded difference grows with its minuend and falls with
// its subtrahend, so no sample's computed offset exceeds the larger
// computed edge offset in magnitude; and the squares and their sum grow
// with their operands too. The bound is exact: no slack. A NaN box (a NaN
// sample) bounds NaN; a NaN chord makes every offset NaN, and no block of
// it can hold the arg-max.
func (c syncChord) bounds(dst []float64, sc *scratch, lo, hi int) []float64 {
	for b, bx := range sc.boxes[lo:hi] {
		first := (lo + b) * blockSize
		x0, y0 := c.at(sc.samples[first].T)
		x1, y1 := c.at(sc.samples[first+blockSize-1].T)
		ex, ey := edgeOffset(bx.minX, bx.maxX, x0, x1), edgeOffset(bx.minY, bx.maxY, y0, y1)
		dst = append(dst, ex*ex+ey*ey)
	}
	return dst
}

// edgeOffset bounds |x − c| for x in [lo, hi] and c between c0 and c1 as
// the larger of hi − min(c0, c1) and max(c0, c1) − lo, computed.
func edgeOffset(lo, hi, c0, c1 float64) float64 {
	if c0 > c1 {
		c0, c1 = c1, c0
	}
	e, f := hi-c0, c1-lo
	if f > e {
		e = f
	}
	return e
}

// segChord is the DP chord: a sample is measured against the chord's
// closest point, the segment distance.
type segChord struct {
	ax, ay, dx, dy, den float64
	mag                 float64 // the largest magnitude of an end's coordinate
}

func newSegChord(a, b geom.Point) segChord {
	dx, dy := b.X-a.X, b.Y-a.Y
	return segChord{a.X, a.Y, dx, dy, dx*dx + dy*dy,
		max(math.Abs(a.X), math.Abs(a.Y), math.Abs(b.X), math.Abs(b.Y))}
}

func (c segChord) scan(samples []model.Sample, lo, hi int, r far) far {
	for k, s := range samples[lo:hi] {
		ex, ey := offSegment(c.ax, c.ay, c.dx, c.dy, c.den, s.P)
		if d2 := ex*ex + ey*ey; d2 > r.d2 || d2 == r.d2 && lo+k < r.at {
			r = far{d2, ex, ey, lo + k}
		}
	}
	return r
}

// maxBoundedMag is the largest coordinate magnitude segChord.bounds bounds:
// below it no product or square offSegment forms can overflow.
const maxBoundedMag = 0x1p500

// bounds is the largest computed squared distance of the box's four
// corners to the chord, plus slack. In exact arithmetic the distance to a
// segment is convex, so no point of the box lies farther than a corner. The
// computed offsets are not monotone, though: the clamped fraction f carries
// a few roundings, and each of the four operations after it one more, so a
// computed offset is within about 20 units of rounding of the largest
// magnitude m involved (a coordinate of the box or the chord's ends; |dx|
// and |dy| are at most 2m) of an exact offset to a point on the segment.
// That error enters twice — the sample's offset overstated, the corner's
// understated — and the squares and the sum add a relative rounding each.
// The slack covers both with room: 64 units of m's last place (m·2⁻⁴⁶) on
// the distance, and 2⁻⁴⁶ relative on its square. 2⁻⁵⁰⁰ more absorbs
// underflow (offsets below 2⁻⁵⁰⁰ square to nothing, and a chord shorter
// than that has a fraction of any value). A block beyond maxBoundedMag, or
// with a NaN box, is never skipped.
func (c segChord) bounds(dst []float64, sc *scratch, lo, hi int) []float64 {
	for _, bx := range sc.boxes[lo:hi] {
		m := max(c.mag, math.Abs(bx.minX), math.Abs(bx.maxX), math.Abs(bx.minY), math.Abs(bx.maxY))
		if !(m <= maxBoundedMag) {
			dst = append(dst, math.Inf(1))
			continue
		}
		ex, ey := offSegment(c.ax, c.ay, c.dx, c.dy, c.den, geom.Point{X: bx.minX, Y: bx.minY})
		d2 := ex*ex + ey*ey
		ex, ey = offSegment(c.ax, c.ay, c.dx, c.dy, c.den, geom.Point{X: bx.minX, Y: bx.maxY})
		d2 = max(d2, ex*ex+ey*ey)
		ex, ey = offSegment(c.ax, c.ay, c.dx, c.dy, c.den, geom.Point{X: bx.maxX, Y: bx.minY})
		d2 = max(d2, ex*ex+ey*ey)
		ex, ey = offSegment(c.ax, c.ay, c.dx, c.dy, c.den, geom.Point{X: bx.maxX, Y: bx.maxY})
		d2 = max(d2, ex*ex+ey*ey)
		r := math.Sqrt(d2) + m*0x1p-46 + 0x1p-500
		dst = append(dst, r*r*(1+0x1p-46))
	}
	return dst
}

// offSegment returns p minus the point closest to it on the chord from
// (ax, ay) over (dx, dy), of squared length den: the chord's point at
// fraction f ∈ [0, 1] (a chord of no length is its start). Small enough to
// inline, so the kernels' invariants stay in registers.
func offSegment(ax, ay, dx, dy, den float64, p geom.Point) (ex, ey float64) {
	f := 0.0
	if den != 0 {
		f = ((p.X-ax)*dx + (p.Y-ay)*dy) / den
		if f < 0 {
			f = 0
		} else if f > 1 {
			f = 1
		}
	}
	return p.X - (ax + f*dx), p.Y - (ay + f*dy)
}

// farthest turns a squared scan's arg-max — sample at, offset (ex, ey) from
// the chord, squared deviation best — into splitPoint's answer.
//
// What the one root guarantees: the recorded deviation is the exact
// deviation of a real sample, never an estimate, so a tolerance is never
// overstated; and a sample the squares rank below the arg-max can exceed it
// only where the two deviations agree to within the rounding of two products
// and a sum — the tolerance is the range's maximum to within a few units in
// its last place, which is also all geom.DPL itself promises. Dividing at
// either of two such samples is a valid Douglas–Peucker step.
func farthest(best, ex, ey float64, at int, delta float64) (float64, int) {
	if at < 0 {
		return 0, -1
	}
	if math.IsInf(best, 1) {
		// Squares beyond 1e308 cannot rank the samples, so the range may not
		// be closed on their word. Dividing it is always sound.
		return best, at
	}
	d := math.Hypot(ex, ey)
	if d <= delta {
		return d, -1
	}
	return d, at
}

// splitMiddle is the DP+ kernel. Its choice depends on every sample's own
// d > delta, not on a maximum, so it keeps the root per sample and saves the
// chord set-up only.
func splitMiddle(samples []model.Sample, i, j int, delta float64) (maxDist float64, split int) {
	ax, ay := samples[i].P.X, samples[i].P.Y
	dx, dy := samples[j].P.X-ax, samples[j].P.Y-ay
	den := dx*dx + dy*dy
	split = -1
	mid := (i + j) / 2
	bestMidDist := j - i // larger than any |idx−mid| in range
	for k, s := range samples[i+1 : j] {
		d := math.Hypot(offSegment(ax, ay, dx, dy, den, s.P))
		if d > maxDist {
			maxDist = d
		}
		if d > delta {
			md := i + 1 + k - mid
			if md < 0 {
				md = -md
			}
			if md < bestMidDist {
				bestMidDist = md
				split = i + 1 + k
			}
		}
	}
	return maxDist, split
}

// divide runs the division process over sc.samples with tolerance delta.
// Ranges are processed in order — a stack where the right half is pushed
// first — so a range that is not divided is final in segment order: its end
// and actual tolerance go to sc.kept. The deviation of every range it
// divides, where below the given bound, is appended to dists.
func (sc *scratch) divide(delta float64, m Method, dists []float64, below float64) []float64 {
	sc.stack = append(sc.stack[:0], frame{0, len(sc.samples) - 1})
	sc.kept = sc.kept[:0]
	for len(sc.stack) > 0 {
		fr := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		if fr.j <= fr.i+1 {
			sc.kept = append(sc.kept, keptSample{fr.j, 0})
			continue
		}
		maxDist, split := sc.splitPoint(fr.i, fr.j, delta, m)
		if split < 0 {
			sc.kept = append(sc.kept, keptSample{fr.j, maxDist})
			continue
		}
		if maxDist < below {
			dists = append(dists, maxDist)
		}
		sc.stack = append(sc.stack, frame{split, fr.j}, frame{fr.i, split})
	}
	return dists
}

// Simplify reduces tr to a simplified trajectory with tolerance delta using
// the chosen method. delta must be ≥ 0; the output always keeps the first
// and last sample, and each produced segment records its actual tolerance.
// A trajectory without samples simplifies to one without kept samples or
// segments.
func Simplify(tr *model.Trajectory, delta float64, m Method) *Trajectory {
	switch tr.Len() {
	case 0:
		return &Trajectory{Object: tr.ID, Orig: tr, Method: m}
	case 1:
		// Degenerate but representable: a stationary zero-duration segment.
		s := tr.Samples[0]
		return &Trajectory{Object: tr.ID, Orig: tr, Method: m, Keep: []int{0}, Segments: []Segment{{
			TimedSegment: geom.TimedSeg(s.P, s.P, float64(s.T), float64(s.T)),
		}}}
	}
	sc := getScratch(tr.Samples, m != DPPlus)
	st := sc.simplify(tr, delta, m)
	sc.release()
	return st
}

// simplify divides sc's samples, those of tr (at least two), and assembles
// the simplified trajectory.
func (sc *scratch) simplify(tr *model.Trajectory, delta float64, m Method) *Trajectory {
	st := &Trajectory{Object: tr.ID, Orig: tr, Method: m}
	sc.divide(delta, m, nil, math.Inf(-1))
	st.Keep = make([]int, len(sc.kept)+1)
	st.Segments = make([]Segment, len(sc.kept))
	i := 0
	for s, k := range sc.kept {
		a, b := sc.samples[i], sc.samples[k.idx]
		st.Keep[s+1] = k.idx
		st.Segments[s] = Segment{
			TimedSegment: geom.TimedSeg(a.P, b.P, float64(a.T), float64(b.T)),
			StartIdx:     i,
			EndIdx:       k.idx,
			Tolerance:    k.tol,
		}
		if k.tol > st.Tolerance {
			st.Tolerance = k.tol
		}
		i = k.idx
	}
	return st
}

// SimplifyAll simplifies every trajectory of the database with the same
// tolerance and method, in ID order.
func SimplifyAll(db *model.DB, delta float64, m Method) []*Trajectory {
	out, _ := SimplifyAllWorkers(context.Background(), db, delta, m, 1)
	return out
}

// SimplifyAllWorkers is SimplifyAll on a bounded worker pool: trajectories
// are independent, and each worker writes only its own ID slot, so the
// result is identical (and identically ordered) for every worker count.
// workers ≤ 1 runs serially. Cancelling ctx aborts between trajectories
// and returns ctx.Err() with a nil slice.
func SimplifyAllWorkers(ctx context.Context, db *model.DB, delta float64, m Method, workers int) ([]*Trajectory, error) {
	trajs := db.Trajectories()
	out := make([]*Trajectory, len(trajs))
	if err := par.For(ctx, len(trajs), workers, func(id int) {
		out[id] = Simplify(trajs[id], delta, m)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// AppendSplitDistances runs the division process with δ = 0 and appends to
// dst the split deviations below the given bound (+Inf for all of them), in
// division order. This is the tolerance profile the δ-selection guideline
// of Section 7.4 inspects for its largest-gap heuristic, which only looks
// below e. Collinear interior points terminate ranges early (their
// deviation is 0), exactly as a δ = 0 run of the real algorithm would. The
// kernels are Simplify's, block bound included: a δ = 0 division still
// starts from ranges as long as the trajectory, where the bound skips
// blocks (BenchmarkComputeDelta/cattle@1 runs ≈ 15–20 % faster with it).
func AppendSplitDistances(dst []float64, tr *model.Trajectory, m Method, below float64) []float64 {
	if tr.Len() < 3 {
		return dst
	}
	sc := getScratch(tr.Samples, m != DPPlus)
	dst = sc.divide(0, m, dst, below)
	sc.release()
	return dst
}
