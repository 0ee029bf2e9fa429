package core

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/trace"
)

// Temporal partitioning: the partition → local-mine → merge scheme of
// "Towards Distributed Convoy Pattern Mining" (arXiv 1512.08150), adapted
// to this codebase's exact answer semantics.
//
// The time domain [lo, hi] is cut into windows that overlap by k−1 ticks.
// The overlap is the whole trick: every k consecutive ticks then lie
// entirely inside at least one window, so no lifetime-k convoy is
// invisible to every local run. Each window is mined independently at the
// full (m, k, e) parameters, and the local maximal answers are stitched
// back together by MergePartials:
//
//   - any global maximal convoy (O, [s, e]) restricted to a window w that
//     it overlaps by ≥ k ticks is dominated by some local maximal answer
//     of w (the restriction is itself a valid local convoy);
//   - walking the covering windows left to right and intersecting the
//     member sets of those dominating local answers reconstructs exactly
//     (O, [s, e]) — each pairwise intersection keeps ≥ m objects and the
//     accumulated interval stays contiguous;
//   - conversely, every merged candidate is a valid convoy: each of its
//     ticks is covered by one of the two merged spans, and its members are
//     a subset of both, so density-connectedness at every tick is
//     inherited. A final lifetime ≥ k filter plus Canonicalize therefore
//     yields the single-pass answer, member for member, tick for tick.
//
// The merged ≡ single-pass property is pinned by race-enabled tests across
// algorithm variants, partition counts and worker counts.

// Window is one temporal partition: an inclusive tick interval.
type Window struct {
	Lo, Hi model.Tick
}

// PartitionWindows splits the time domain [lo, hi] into at most n windows
// of equal stride that overlap by k−1 ticks. It returns a single window
// covering everything when n ≤ 1, when the domain is shorter than k, or
// when the stride would degenerate. Windows are sorted ascending, jointly
// cover [lo, hi], and every k consecutive ticks of the domain lie entirely
// inside at least one window.
//
// Each cut past the first mines k−1 ticks twice, so n is first lowered to
// 1 + span/(k−1): the windows then hold at most twice the span's ticks
// between them, whatever n asks for. The answer is the same for every n —
// the merge is exact — so the bound only caps the work.
func PartitionWindows(lo, hi model.Tick, k int64, n int) []Window {
	if hi < lo {
		return nil
	}
	if k < 1 {
		k = 1
	}
	span := model.TickSpan(lo, hi)
	overlap := k - 1
	if overlap > 0 && int64(n)-1 > span/overlap {
		n = int(span/overlap) + 1
	}
	if n <= 1 || span <= k || span <= overlap+1 {
		return []Window{{Lo: lo, Hi: hi}}
	}
	// stride windows of length stride+overlap cover the domain with n cuts:
	// window i starts at lo + i·stride, so consecutive windows share
	// exactly `overlap` ticks.
	stride := (span - overlap + int64(n) - 1) / int64(n)
	if stride < 1 {
		stride = 1
	}
	var out []Window
	for start := lo; ; start += model.Tick(stride) {
		// The last window is recognised by what is left of the domain:
		// start+stride+overlap may lie past model.MaxTick.
		if int64(hi-start) < stride+overlap {
			out = append(out, Window{Lo: start, Hi: hi})
			break
		}
		out = append(out, Window{Lo: start, Hi: start + model.Tick(stride+overlap) - 1})
	}
	return out
}

// SliceTime restricts the database to the window [lo, hi], returning the
// sliced database and a mapping from its dense IDs back to the source's
// (ids[newID] = oldID). Objects whose lifespan misses the window entirely
// are dropped; labels are preserved.
//
// Slicing is interpolation-aware: when a window boundary falls inside a
// sampling gap, the virtual location at the boundary tick (Section 4's
// linear interpolation) is materialized as a real sample, so the sliced
// trajectory interpolates to the same positions over [lo, hi] as the
// original — a plain sample clip would silently move the object.
func SliceTime(db *model.DB, lo, hi model.Tick) (*model.DB, []model.ObjectID) {
	out := model.NewDB()
	var ids []model.ObjectID
	for _, tr := range db.Trajectories() {
		if tr.End() < lo || tr.Start() > hi {
			continue
		}
		clip := tr.Clip(lo, hi)
		var samples []model.Sample
		if p, ok := tr.LocationAt(lo); ok && (clip == nil || clip.Samples[0].T != lo) {
			samples = append(samples, model.Sample{T: lo, P: p})
		}
		if clip != nil {
			samples = append(samples, clip.Samples...)
		}
		if p, ok := tr.LocationAt(hi); ok && (len(samples) == 0 || samples[len(samples)-1].T != hi) {
			samples = append(samples, model.Sample{T: hi, P: p})
		}
		if len(samples) == 0 {
			// The whole in-window stretch is a sampling gap with neither
			// boundary covered — impossible given Covers math above, but a
			// trajectory must not be added empty.
			continue
		}
		sliced, err := model.NewTrajectory(tr.Label, samples)
		if err != nil {
			continue // unreachable: samples are strictly increasing by construction
		}
		out.Add(sliced)
		ids = append(ids, tr.ID)
	}
	return out, ids
}

// RemapConvoys rewrites convoy members through ids (ids[localID] =
// globalID), translating a sliced database's answers back into the source
// database's ID space. Member lists are re-sorted, since the mapping need
// not be monotone.
func RemapConvoys(convoys []Convoy, ids []model.ObjectID) []Convoy {
	out := make([]Convoy, len(convoys))
	for i, c := range convoys {
		members := make([]model.ObjectID, len(c.Objects))
		for j, id := range c.Objects {
			members[j] = ids[id]
		}
		sortIDs(members)
		out[i] = Convoy{Objects: members, Start: c.Start, End: c.End}
	}
	return out
}

// MergePartials stitches per-window maximal convoys into the exact global
// answer. windows and parts are parallel (parts[i] holds window i's local
// answers, already in the global ID space) and windows must be sorted
// ascending by Lo — the order PartitionWindows produces.
//
// The sweep keeps a frontier of merge candidates. At window i, every
// frontier candidate u whose span still reaches window i is paired with
// every local answer v of window i; when their intervals touch
// (overlapping or adjacent) and they share ≥ m members, the stitched
// candidate (u ∩ v, [min start, max end]) joins the frontier alongside u
// and v. Candidates that can no longer reach the current window retire.
// After the sweep, candidates with lifetime ≥ k survive and Canonicalize
// drops the dominated ones.
func MergePartials(windows []Window, parts [][]Convoy, p Params) Result {
	seen := make(map[string]struct{})
	var frontier, retired []Convoy
	keep := func(c Convoy) bool {
		key := fmt.Sprintf("%d|%d|%s", c.Start, c.End, setKey(c.Objects))
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		return true
	}
	for i, w := range windows {
		// Retire frontier candidates that end before window i starts (minus
		// one tick of adjacency): no later window can extend them, since
		// window Lo values only grow.
		live := frontier[:0]
		for _, u := range frontier {
			if u.End+1 >= w.Lo {
				live = append(live, u)
			} else {
				retired = append(retired, u)
			}
		}
		frontier = live

		var stitched []Convoy
		for _, v := range parts[i] {
			for _, u := range frontier {
				// Intervals must overlap or be adjacent so their union is
				// one contiguous stretch.
				if max64(u.Start, v.Start) > min64(u.End, v.End)+1 {
					continue
				}
				members := intersectSorted(u.Objects, v.Objects)
				if len(members) < p.M {
					continue
				}
				c := Convoy{Objects: members, Start: min64(u.Start, v.Start), End: max64(u.End, v.End)}
				if keep(c) {
					stitched = append(stitched, c)
				}
			}
		}
		for _, v := range parts[i] {
			if keep(v) {
				frontier = append(frontier, v)
			}
		}
		frontier = append(frontier, stitched...)
	}
	all := append(retired, frontier...)
	final := all[:0]
	for _, c := range all {
		if c.Lifetime() >= p.K && len(c.Objects) >= p.M {
			final = append(final, c)
		}
	}
	return Canonicalize(final)
}

func min64(a, b model.Tick) model.Tick {
	if a < b {
		return a
	}
	return b
}

func max64(a, b model.Tick) model.Tick {
	if a > b {
		return a
	}
	return b
}

func sortIDs(ids []model.ObjectID) {
	// Insertion sort: member lists are short and usually nearly sorted
	// (the remap through a monotone-ish mapping preserves most order).
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// WithPartitions splits the run into n overlapping temporal partitions
// (overlap k−1), mines each independently — in parallel under WithWorkers
// — and merges the partial convoys into the exact global answer. The
// answer set is identical for every partition count (the merged ≡
// single-pass property tests), so like workers this is a performance
// knob, not a semantic one. n ≤ 1 keeps the ordinary single-pass run, and
// PartitionWindows caps n where more windows would mine more than twice
// the domain's ticks.
//
// Partitioned execution applies to Run with the default (grid-DBSCAN)
// backend only: Seq streams from a single-pass scan regardless (partial
// convoys are not final until the merge, so there is nothing to stream
// early), and a non-default clusterer keeps the single-pass plan — a
// backend like proxgraph clusters its own side data in its own ID space,
// which a sliced database cannot re-index. (Window a contact log by
// slicing the log itself: proxgraph.Log.Window.)
func WithPartitions(n int) Option { return func(q *Query) { q.partitions = n } }

// runPartitioned executes the partition → local-mine → merge plan behind
// WithPartitions: slice the database into overlapping windows, run an
// ordinary sub-query per window on the par pool, remap each window's
// answers into the global ID space and stitch them with MergePartials.
func (q *Query) runPartitioned(ctx context.Context, db *model.DB) (Result, error) {
	st := Stats{Variant: q.variant, Workers: q.workers}
	if st.Workers < 1 {
		st.Workers = 1
	}
	statsOut := q.statsOut
	defer func() {
		if statsOut != nil {
			*statsOut = st
		}
	}()
	if err := q.p.Validate(); err != nil {
		return nil, err
	}
	lo, hi, ok := db.TimeRange()
	if !ok {
		return nil, nil
	}
	windows := PartitionWindows(lo, hi, q.p.K, q.partitions)
	if len(windows) == 1 {
		// A degenerate partitioning (short domain, n ≤ 1) is exactly the
		// ordinary single-pass run.
		sub := *q
		sub.partitions = 0
		sub.statsOut = &st
		return sub.Run(ctx, db)
	}
	ctx, sp := trace.StartSpan(ctx, "run")
	sp.Str("algo", q.algoName()).Int("m", int64(q.p.M)).Int("k", q.p.K).Float("e", q.p.Eps).
		Int("partitions", int64(len(windows))).Int("workers", int64(st.Workers))
	defer sp.End()

	st.NumPartitions = len(windows)
	parts := make([][]Convoy, len(windows))
	stats := make([]Stats, len(windows))
	errs := make([]error, len(windows))
	mctx, msp := trace.StartSpan(ctx, "partitions")
	err := par.For(mctx, len(windows), q.workers, func(i int) {
		sliced, ids := SliceTime(db, windows[i].Lo, windows[i].Hi)
		sub := *q
		sub.partitions = 0
		sub.limit = 0
		sub.workers = 1 // parallelism is spent across partitions, not within
		sub.statsOut = &stats[i]
		res, err := sub.Run(mctx, sliced)
		if err != nil {
			errs[i] = err
			return
		}
		parts[i] = RemapConvoys(res, ids)
	})
	msp.End()
	if err == nil {
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}
	for _, s := range stats {
		st.NumCandidates += s.NumCandidates
		st.RefineUnits += s.RefineUnits
		st.ClusterPasses += s.ClusterPasses
		st.ClusterPassesFull += s.ClusterPassesFull
		st.ClusterPassesIncremental += s.ClusterPassesIncremental
		st.ObjectsReclustered += s.ObjectsReclustered
		st.VertexKept += s.VertexKept
		st.VertexTotal += s.VertexTotal
		st.SimplifyTime += s.SimplifyTime
		st.FilterTime += s.FilterTime
		st.RefineTime += s.RefineTime
		if s.Delta > st.Delta {
			st.Delta = s.Delta
		}
		if s.Lambda > st.Lambda {
			st.Lambda = s.Lambda
		}
	}
	_, gsp := trace.StartSpan(ctx, "merge")
	merged := MergePartials(windows, parts, q.p)
	gsp.Int("partials", int64(countConvoys(parts))).Int("merged", int64(len(merged)))
	gsp.End()
	sp.Int("cluster_passes", st.ClusterPasses)
	if q.limit > 0 && len(merged) > q.limit {
		merged = merged[:q.limit]
	}
	return merged, nil
}

// algoName names the query's algorithm for trace annotations.
func (q *Query) algoName() string {
	if q.useCMC {
		return "cmc"
	}
	return q.variant.String()
}

func countConvoys(parts [][]Convoy) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}
