package dbscan

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/oracle"
)

// buildAdjacency materializes the neighborhood graph of n items from the
// neighbors callback (which includes self), each list sorted.
func buildAdjacency(n, minPts int, neighbors func(i int, buf []int) []int) Adjacency {
	adj := Adjacency{NH: make([][]int, n), Core: make([]bool, n)}
	for i := 0; i < n; i++ {
		nh := neighbors(i, nil)
		sort.Ints(nh)
		adj.NH[i] = nh
		adj.Core[i] = len(nh) >= minPts
	}
	return adj
}

// adjOf is the snapshot neighborhood graph of pts, by brute force.
func adjOf(pts []geom.Point, eps float64, minPts int) Adjacency {
	return buildAdjacency(len(pts), minPts, func(i int, buf []int) []int {
		for j := range pts {
			if geom.D2(pts[i], pts[j]) <= eps*eps {
				buf = append(buf, j)
			}
		}
		return buf
	})
}

// clusterComponents is the components of one graph, by a fresh fill.
func clusterComponents(adj Adjacency) [][]int {
	var f componentFill
	return f.components(adj)
}

// maximalOf is the oracle's maximal clusters of pts, each point named by
// its index.
func maximalOf(pts []geom.Point, eps float64, minPts int) [][]int {
	ids := make([]model.ObjectID, len(pts))
	for i := range ids {
		ids[i] = i
	}
	return oracle.Clusters(ids, pts, minPts, eps)
}

func TestClusterMaximalSharedBorder(t *testing.T) {
	// Two 3-core groups with one border point reachable from both. With
	// minPts=4 the border belongs to BOTH maximal sets, while
	// clusterComponents merges everything into one component.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(0.2, 0), geom.Pt(0.4, 0), // cores of A
		geom.Pt(2.4, 0), geom.Pt(2.6, 0), geom.Pt(2.8, 0), // cores of B
		geom.Pt(1.4, 0), // border of both (within 1.0 of 0.4 and 2.4)
	}
	adj := adjOf(pts, 1.0, 4)
	// Sanity: 6 is not core (neighbors {2,3,6} only).
	if adj.Core[6] {
		t.Fatalf("point 6 should be border, NH=%v", adj.NH[6])
	}
	clusters := maximalOf(pts, 1.0, 4)
	if len(clusters) != 2 {
		t.Fatalf("maximal clusters = %v, want 2", clusters)
	}
	for i, c := range clusters {
		found := false
		for _, m := range c {
			if m == 6 {
				found = true
			}
		}
		if !found {
			t.Errorf("cluster %d misses the shared border: %v", i, c)
		}
	}
	comps := clusterComponents(adj)
	if len(comps) != 1 {
		t.Fatalf("components = %v, want single merged component", comps)
	}
	if len(comps[0]) != 7 {
		t.Errorf("merged component = %v, want all 7 points", comps[0])
	}
}

func TestClusterMaximalDisjointGroupsMatchExclusive(t *testing.T) {
	// Without shared borders, maximal sets, components and exclusive DBSCAN
	// all agree.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(1, 0),
		geom.Pt(10, 0), geom.Pt(10.5, 0),
		geom.Pt(50, 50), // noise
	}
	maximal := maximalOf(pts, 1.0, 2)
	comps := clusterComponents(adjOf(pts, 1.0, 2))
	labels := Cluster(pts, 1.0, 2)
	groups := groupsByLabel(labels)
	if len(maximal) != 2 || len(comps) != 2 || len(groups) != 2 {
		t.Fatalf("cluster counts differ: maximal=%d comps=%d exclusive=%d",
			len(maximal), len(comps), len(groups))
	}
	for i := range maximal {
		if !equalSlices(maximal[i], comps[i]) || !equalSlices(maximal[i], groups[i]) {
			t.Errorf("cluster %d differs: maximal=%v comps=%v exclusive=%v",
				i, maximal[i], comps[i], groups[i])
		}
	}
	// Noise point 5 appears nowhere.
	for _, c := range maximal {
		for _, m := range c {
			if m == 5 {
				t.Error("noise point clustered")
			}
		}
	}
}

func equalSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property (§5): every maximal set — the oracle's clusters — is fully
// contained in exactly one component, so filtering with components never
// dismisses a true convoy.
func TestPropMaximalWithinComponents(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	for iter := 0; iter < 100; iter++ {
		n := r.Intn(40)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(r.Float64()*15, r.Float64()*15)
		}
		eps, minPts := 1.0+r.Float64(), 1+r.Intn(4)
		maximal := maximalOf(pts, eps, minPts)
		comps := clusterComponents(adjOf(pts, eps, minPts))
		compOf := map[int]int{}
		for ci, c := range comps {
			for _, m := range c {
				if prev, dup := compOf[m]; dup && prev != ci {
					t.Fatalf("point %d in two components", m)
				}
				compOf[m] = ci
			}
		}
		for _, c := range maximal {
			ref, ok := compOf[c[0]]
			if !ok {
				t.Fatalf("cluster member %d not in any component", c[0])
			}
			for _, m := range c[1:] {
				if compOf[m] != ref {
					t.Fatalf("maximal set %v spans components", c)
				}
			}
		}
	}
}
