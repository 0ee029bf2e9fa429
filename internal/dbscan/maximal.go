package dbscan

import "slices"

// This file provides the clustering view the CuTS filter step needs on top
// of a neighborhood graph: its components, the coarsened, disjoint view.
// Maximal density-connected sets — the paper's Definition 2/3 clusters,
// which CMC chains at every tick and internal/increment computes — may
// overlap on border points; merging the overlapping ones gives the
// connected components of the graph whose edges require at least one core
// endpoint. Every maximal set lies inside exactly one component, so
// filtering with components can never dismiss a true convoy, and the
// disjointness keeps candidate chaining unambiguous.

// Adjacency holds the ε-neighborhood lists and core flags of a point set.
type Adjacency struct {
	// NH[i] lists the in-range items of item i, including i itself,
	// in ascending index order.
	NH [][]int
	// Core[i] reports |NH[i]| ≥ minPts.
	Core []bool
}

// componentFill finds the merged disjoint components of one graph after
// another, its buffers kept: the connected components of the graph with an
// edge p–q whenever q ∈ NH(p) and at least one of p, q is core. Overlapping
// maximal sets (sharing borders) collapse into one component.
type componentFill struct {
	comp  []int // component of each item, -1 while it has none
	queue []int // every component's members back to back, in flood order
	ends  []int // ends[c]: where component c's members end in queue
}

// components reports the components as fresh lists carved from one arena:
// members sorted ascending, components ordered by their smallest core
// index, noise omitted.
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
