// Package core implements the paper's convoy-discovery algorithms: the
// convoy query model (Definition 3), the CMC baseline (Algorithm 1), the
// CuTS filter-refinement family — CuTS, CuTS+ and CuTS* (Algorithms 2–3,
// Sections 5–6) — and the δ/λ parameter guidelines of Section 7.4. The
// appendix's MC2 moving-cluster baseline is test code beside the paper's
// claims (internal/oracle).
//
// # Answer semantics
//
// A convoy query (m, k, e) over a trajectory database returns every pair
// (O, [s, e']) such that
//
//  1. |O| ≥ m,
//  2. e' − s + 1 ≥ k (at least k consecutive time points),
//  3. at every tick t ∈ [s, e'], O is contained in a single maximal
//     density-connected set (DBSCAN with eps = e, minPts = m, neighborhoods
//     including the point itself) of the objects alive at t, with missing
//     samples interpolated linearly (Section 4), and
//  4. the pair is maximal: no other answer (O2, I2) has O ⊆ O2 and
//     [s, e'] ⊆ I2.
//
// All four algorithms return exactly this set (canonically sorted), which
// the cross-algorithm equivalence tests rely on.
//
// # Context-first execution
//
// Query is the primary execution surface: built from functional options
// (NewQuery(M(3), K(180), Eps(8), WithVariant(...), WithWorkers(n))) and
// run with Seq(ctx, db) — an incremental iterator yielding convoys as the
// scan closes them — or Run(ctx, db) — that stream collected into the
// canonical batch answer. Cancellation is observed at tick, λ-partition
// and candidate granularity; breaking out of Seq (or WithLimit) stops every
// worker at its next unit of work and abandons all but the scheduler's
// window of chunks already in flight (the bound is on Seq).
//
// # One tick-scan kernel, parallel by scheduling
//
// A tick is clustered, metered and chained in exactly one place: a
// ClusterSource turns the tick's snapshot into clusters — over positions
// always through internal/increment's engine, which patches the previous
// tick or makes a full pass, whichever the churn threshold says — and a
// Monitor chains the cluster lists into convoys. Feeds push ticks through
// that pair as they arrive; the batch CMC scan (cmcScan — whole database,
// refinement window or partition) drives the very same pair from a stored
// database, whose snapshots it reads by sweeping a model.Cursor through
// ascending ticks rather than looking every object up again at every tick. The cursor lends out its
// buffers: a snapshot's ID and point slices are valid until the next tick,
// for a Clusterer and for ReplayTicks' callback alike.
//
// Every stage of the discovery pipeline is parallel on a bounded worker
// pool selected by WithWorkers, and parallelism is a scheduling policy
// around the serial code, never a second implementation:
//
//   - simplification runs per trajectory (independent inputs, one result
//     slot each);
//   - the CMC scan, the CuTS filter's λ-partition scan and candidate
//     refinement all use the one ordered fold of internal/par
//     (par.OrderedChunks): the expensive per-index work — clustering a
//     tick or a partition, refining a candidate — runs on the pool in
//     contiguous chunks, while a single consumer folds the results
//     strictly in index order; a pipeline, not a per-index barrier. The
//     CMC scan has one schedule whoever consumes it: contiguous chunks of
//     min(⌈span/workers⌉, scanChunk) ticks, so each worker's source and
//     cursor see consecutive ticks and can cluster, and sweep,
//     incrementally.
//
// Serial and parallel runs return identical answers *by construction*, not
// by coincidence: a tick's clusters are a function of that tick's snapshot
// alone (a source's cross-tick state changes how fast they are computed,
// never what they are), and the only order-sensitive state — the live
// candidate set a Monitor advances with chainStep — is folded by a single
// consumer that receives exactly the same cluster sequences, in exactly
// the same order, for every worker count. A differential harness pins
// parallel, streamed, incremental and partitioned output of CMC and all
// three CuTS variants to internal/oracle, a naive transcription of the
// definition above.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/model"
)

// Params are the convoy query parameters of Definition 3.
type Params struct {
	// M is the minimum number of objects in a convoy (m ≥ 2 in the paper's
	// experiments; m ≥ 1 is accepted).
	M int
	// K is the minimum lifetime in consecutive time points (k ≥ 1).
	K int64
	// Eps is the density-connection distance threshold e (> 0; 0 allows
	// only coincident objects and is accepted for testing).
	Eps float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	var errs []string
	if p.M < 1 {
		errs = append(errs, fmt.Sprintf("m must be ≥ 1 (got %d)", p.M))
	}
	if p.K < 1 {
		errs = append(errs, fmt.Sprintf("k must be ≥ 1 (got %d)", p.K))
	}
	if p.Eps < 0 {
		errs = append(errs, fmt.Sprintf("e must be ≥ 0 (got %g)", p.Eps))
	}
	if len(errs) > 0 {
		return errors.New("core: invalid convoy parameters: " + strings.Join(errs, "; "))
	}
	return nil
}

// Convoy is one answer of the convoy query: a group of objects together
// with the maximal time interval over which they traveled together.
type Convoy struct {
	// Objects is the ascending list of member object IDs.
	Objects []model.ObjectID
	// Start and End delimit the inclusive tick interval.
	Start, End model.Tick
}

// Lifetime returns the number of time points the convoy spans.
func (c Convoy) Lifetime() int64 { return int64(c.End-c.Start) + 1 }

// Size returns the number of member objects.
func (c Convoy) Size() int { return len(c.Objects) }

// Contains reports whether the convoy includes the object.
func (c Convoy) Contains(id model.ObjectID) bool { return containsSorted(c.Objects, id) }

// Equal reports whether two convoys have identical members and interval.
func (c Convoy) Equal(o Convoy) bool {
	return c.Start == o.Start && c.End == o.End && equalSorted(c.Objects, o.Objects)
}

// DominatedBy reports whether o covers c in both dimensions: c's objects are
// a subset of o's and c's interval lies inside o's. A convoy dominates
// itself.
func (c Convoy) DominatedBy(o Convoy) bool {
	return o.Start <= c.Start && c.End <= o.End && subsetSorted(c.Objects, o.Objects)
}

// String renders the convoy as "⟨o1,o2,[s,e]⟩" using object IDs.
func (c Convoy) String() string {
	var b strings.Builder
	b.WriteString("⟨")
	for i, id := range c.Objects {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "o%d", id)
	}
	fmt.Fprintf(&b, ",[%d,%d]⟩", c.Start, c.End)
	return b.String()
}

// Result is a canonical set of convoys: maximal answers only, sorted by
// (Start, End, member list).
type Result []Convoy

// Canonicalize deduplicates, removes dominated (non-maximal) convoys, and
// sorts the remainder into the canonical order. The input slice is not
// modified.
func Canonicalize(convoys []Convoy) Result {
	// Dedup exact duplicates first (cheap via keys).
	seen := make(map[string]struct{}, len(convoys))
	uniq := make([]Convoy, 0, len(convoys))
	for _, c := range convoys {
		key := fmt.Sprintf("%d|%d|%s", c.Start, c.End, setKey(c.Objects))
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		uniq = append(uniq, c)
	}
	// Drop dominated convoys. Sorting by descending size first makes the
	// common subset checks cheap to skip.
	sort.Slice(uniq, func(i, j int) bool {
		if len(uniq[i].Objects) != len(uniq[j].Objects) {
			return len(uniq[i].Objects) > len(uniq[j].Objects)
		}
		return uniq[i].Lifetime() > uniq[j].Lifetime()
	})
	var keep []Convoy
	for _, c := range uniq {
		dominated := false
		for _, k := range keep {
			if c.DominatedBy(k) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, c)
		}
	}
	sortResult(keep)
	return keep
}

// sortResult orders convoys canonically: by start tick, then end tick, then
// lexicographic member comparison.
func sortResult(convoys []Convoy) {
	sort.Slice(convoys, func(i, j int) bool {
		a, b := convoys[i], convoys[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		n := len(a.Objects)
		if len(b.Objects) < n {
			n = len(b.Objects)
		}
		for x := 0; x < n; x++ {
			if a.Objects[x] != b.Objects[x] {
				return a.Objects[x] < b.Objects[x]
			}
		}
		return len(a.Objects) < len(b.Objects)
	})
}

// Equal reports whether two canonical results are identical.
func (r Result) Equal(o Result) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// String renders the result one convoy per line.
func (r Result) String() string {
	var b strings.Builder
	for i, c := range r {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(c.String())
	}
	return b.String()
}
