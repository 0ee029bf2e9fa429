package dbscan

import (
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/model"
)

// This file provides the two clustering views the convoy pipeline needs on
// top of plain DBSCAN labels:
//
//   - ClusterMaximal: the paper's Definition 2/3 semantics. A cluster is a
//     maximal set of density-connected points: the reach set of one
//     *core component* (cores connected through core–core neighborhood
//     links) plus every border point adjacent to it. Border points adjacent
//     to several core components belong to SEVERAL clusters — maximal sets
//     may overlap on borders. CMC evaluates convoy co-clustering against
//     these maximal sets at every tick.
//
//   - ClusterComponents: the coarsened, disjoint view used by the CuTS
//     filter step. Overlapping maximal sets are merged (connected
//     components of the graph whose edges require at least one core
//     endpoint). Every maximal set lies inside exactly one component, so
//     filtering with components can never dismiss a true convoy, and the
//     disjointness keeps candidate chaining unambiguous.

// Adjacency holds the ε-neighborhood lists and core flags of a point set.
type Adjacency struct {
	// NH[i] lists the in-range items of item i, including i itself,
	// in ascending index order.
	NH [][]int
	// Core[i] reports |NH[i]| ≥ minPts.
	Core []bool
}

// BuildAdjacency materializes the neighborhood graph for n items using the
// neighbors callback (same contract as Generic: include self). Neighbor
// lists are sorted for deterministic downstream iteration.
func BuildAdjacency(n, minPts int, neighbors func(i int, buf []int) []int) Adjacency {
	adj := Adjacency{NH: make([][]int, n), Core: make([]bool, n)}
	for i := 0; i < n; i++ {
		nh := neighbors(i, nil)
		sort.Ints(nh)
		adj.NH[i] = nh
		adj.Core[i] = len(nh) >= minPts
	}
	return adj
}

// ClusterMaximal returns the maximal density-connected sets of the
// neighborhood graph: one cluster per core component, each containing its
// cores and all adjacent borders, members sorted ascending. Border points
// may appear in multiple clusters; pure noise appears in none. Clusters are
// ordered by their smallest core index.
func ClusterMaximal(adj Adjacency) [][]int {
	n := len(adj.NH)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var clusters [][]int
	var queue []int
	for i := 0; i < n; i++ {
		if !adj.Core[i] || comp[i] >= 0 {
			continue
		}
		cid := len(clusters)
		comp[i] = cid
		queue = append(queue[:0], i)
		members := map[int]struct{}{}
		for head := 0; head < len(queue); head++ {
			c := queue[head]
			members[c] = struct{}{}
			for _, q := range adj.NH[c] {
				if adj.Core[q] {
					if comp[q] < 0 {
						comp[q] = cid
						queue = append(queue, q)
					}
					continue
				}
				members[q] = struct{}{} // border: joins, never expands
			}
		}
		cluster := make([]int, 0, len(members))
		for m := range members {
			cluster = append(cluster, m)
		}
		sort.Ints(cluster)
		clusters = append(clusters, cluster)
	}
	return clusters
}

// ClusterComponents returns the merged disjoint components: connected
// components of the graph with an edge p–q whenever q ∈ NH(p) and at least
// one of p, q is core. Overlapping maximal sets (sharing borders) collapse
// into one component. Members sorted ascending; components ordered by their
// smallest core index; noise omitted.
func ClusterComponents(adj Adjacency) [][]int {
	var f componentFill
	return f.components(adj)
}

// componentFill is ClusterComponents' flood fill with its buffers kept, for
// a caller that fills one graph after another.
type componentFill struct {
	comp  []int // component of each item, -1 while it has none
	queue []int // every component's members back to back, in flood order
	ends  []int // ends[c]: where component c's members end in queue
}

// components reports the components as fresh lists carved from one arena.
func (f *componentFill) components(adj Adjacency) [][]int {
	comp, queue, ends := f.comp[:0], f.queue[:0], f.ends[:0]
	for range adj.NH {
		comp = append(comp, -1)
	}
	for i := range adj.NH {
		if !adj.Core[i] || comp[i] >= 0 {
			continue
		}
		cid := len(ends)
		comp[i] = cid
		head := len(queue)
		queue = append(queue, i)
		for ; head < len(queue); head++ {
			c := queue[head]
			// c is in the component; expand through its neighborhood. A
			// border expands only toward cores (border–border pairs are not
			// edges), a core expands toward everyone.
			for _, q := range adj.NH[c] {
				if comp[q] >= 0 {
					continue
				}
				if adj.Core[c] || adj.Core[q] {
					comp[q] = cid
					queue = append(queue, q)
				}
			}
		}
		ends = append(ends, len(queue))
	}
	f.comp, f.queue, f.ends = comp, queue, ends
	if len(ends) == 0 {
		return nil
	}
	arena := slices.Clone(queue)
	comps := make([][]int, len(ends))
	lo := 0
	for ci, hi := range ends {
		comps[ci] = arena[lo:hi:hi]
		slices.Sort(comps[ci])
		lo = hi
	}
	return comps
}

// SnapshotAdjacency builds the tick-level neighborhood graph of a point
// snapshot with radius eps (grid-accelerated).
func SnapshotAdjacency(pts []geom.Point, eps float64, minPts int) Adjacency {
	if len(pts) == 0 {
		return Adjacency{}
	}
	cell := eps
	if cell <= 0 {
		cell = 1
	}
	idx := grid.NewPointIndex(pts, cell)
	return BuildAdjacency(len(pts), minPts, func(i int, buf []int) []int {
		return idx.Within(pts[i], eps, buf)
	})
}

// SnapshotClustersMaximal returns the maximal density-connected sets of a
// point snapshot — the per-tick clusters CMC consumes.
func SnapshotClustersMaximal(pts []geom.Point, eps float64, minPts int) [][]int {
	return ClusterMaximal(SnapshotAdjacency(pts, eps, minPts))
}

// SnapshotClusters is SnapshotClustersMaximal in object IDs: ids[i] names
// the object at pts[i], and every cluster comes back as a freshly built
// ascending ID list. It is the stateless per-tick clustering — the default
// backend's, and the incremental engine's answer to a snapshot it cannot
// patch. Mismatched slice lengths have no meaningful answer and return nil.
func SnapshotClusters(ids []model.ObjectID, pts []geom.Point, eps float64, minPts int) [][]model.ObjectID {
	if len(ids) != len(pts) || len(ids) < minPts {
		return nil
	}
	idxClusters := SnapshotClustersMaximal(pts, eps, minPts)
	if len(idxClusters) == 0 {
		return nil
	}
	clusters := make([][]model.ObjectID, len(idxClusters))
	for ci, c := range idxClusters {
		objs := make([]model.ObjectID, len(c))
		for i, idx := range c {
			objs[i] = ids[idx]
		}
		// Index clusters are ascending, so objs is already sorted when the
		// snapshot IDs are (database replays); live feeds push arbitrary
		// orders and pay the sort.
		if !sort.IntsAreSorted(objs) {
			sort.Ints(objs)
		}
		clusters[ci] = objs
	}
	return clusters
}
