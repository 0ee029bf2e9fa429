// Package dbscan implements the density-based clustering of the CuTS
// filter step: TRAJ-DBSCAN over simplified sub-polylines (Section 5.2/5.3)
// and the disjoint components the filter chains. It does not cluster the
// per-tick snapshots CMC chains — internal/increment's engine is the one
// clusterer of positions. Cluster, classic label-based DBSCAN over a point
// set (Ester et al.), remains as the benchmark's from-scratch per-tick
// probe.
//
// Semantics follow the paper's Section 3 precisely: the ε-neighborhood of a
// point includes the point itself (NH_e(p) ∋ p), and a point is core when
// |NH_e(p)| ≥ minPts, so minPts equals the convoy parameter m and a pair of
// objects within e forms a valid cluster for m = 2.
//
// Labels: cluster ids are dense integers from 0; noise is labeled Noise
// (−1). Given the same neighborhood graph, the labeling is deterministic —
// clusters are numbered by their first member in index order, and a border
// point reachable from several clusters joins the lowest-numbered one.
package dbscan

import (
	"repro/internal/geom"
	"repro/internal/grid"
)

// Noise is the label assigned to points that belong to no cluster.
const Noise = -1

const unvisited = -2

// Generic runs DBSCAN over an abstract set of n items whose ε-neighborhoods
// are produced by the neighbors callback. The callback must append to buf
// the indices of every item within range of item i *including i itself* and
// return the extended slice. It may be called more than once per item.
func Generic(n, minPts int, neighbors func(i int, buf []int) []int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = unvisited
	}
	var queue, buf []int
	cid := 0
	for i := 0; i < n; i++ {
		if labels[i] != unvisited {
			continue
		}
		buf = neighbors(i, buf[:0])
		if len(buf) < minPts {
			labels[i] = Noise
			continue
		}
		labels[i] = cid
		queue = append(queue[:0], buf...)
		for head := 0; head < len(queue); head++ {
			q := queue[head]
			if labels[q] == Noise {
				labels[q] = cid // border point claimed by this cluster
				continue
			}
			if labels[q] != unvisited {
				continue
			}
			labels[q] = cid
			buf = neighbors(q, buf[:0])
			if len(buf) >= minPts {
				queue = append(queue, buf...)
			}
		}
		cid++
	}
	return labels
}

// Cluster runs DBSCAN over a point snapshot with radius eps and density
// threshold minPts, using a uniform grid for neighbor search (O(N·k) for k
// points per neighborhood). eps must be > 0.
func Cluster(pts []geom.Point, eps float64, minPts int) []int {
	idx := grid.NewPointIndex(pts, eps)
	return Generic(len(pts), minPts, func(i int, buf []int) []int {
		return idx.Within(pts[i], eps, buf)
	})
}
