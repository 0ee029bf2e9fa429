package dbscan

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// numClusters returns the number of distinct non-noise labels.
func numClusters(labels []int) int {
	n := 0
	for _, l := range labels {
		n = max(n, l+1)
	}
	return n
}

// groupsByLabel partitions item indices by cluster label, dropping noise.
// The outer slice is indexed by cluster id; inner slices are ascending.
func groupsByLabel(labels []int) [][]int {
	groups := make([][]int, numClusters(labels))
	for i, l := range labels {
		if l != Noise {
			groups[l] = append(groups[l], i)
		}
	}
	return groups
}

func TestClusterTwoBlobsAndNoise(t *testing.T) {
	pts := []geom.Point{
		// Blob A around (0,0).
		geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(0, 0.5), geom.Pt(0.4, 0.4),
		// Blob B around (10,10).
		geom.Pt(10, 10), geom.Pt(10.5, 10), geom.Pt(10, 10.5),
		// Lone noise point.
		geom.Pt(50, 50),
	}
	labels := Cluster(pts, 1.0, 3)
	if n := numClusters(labels); n != 2 {
		t.Fatalf("numClusters = %d, want 2 (labels %v)", n, labels)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] || labels[2] != labels[3] {
		t.Errorf("blob A split: %v", labels)
	}
	if labels[4] != labels[5] || labels[5] != labels[6] {
		t.Errorf("blob B split: %v", labels)
	}
	if labels[0] == labels[4] {
		t.Errorf("blobs merged: %v", labels)
	}
	if labels[7] != Noise {
		t.Errorf("lone point not noise: %v", labels)
	}
}

func TestClusterPairWithMinPtsTwo(t *testing.T) {
	// The paper's semantics: NH includes the point itself, so two objects
	// within e form a cluster at m=2.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0)}
	labels := Cluster(pts, 1.0, 2)
	if labels[0] != 0 || labels[1] != 0 {
		t.Errorf("pair should cluster at minPts=2: %v", labels)
	}
	// And a single point at minPts=1 is its own cluster.
	labels = Cluster(pts[:1], 1.0, 1)
	if labels[0] != 0 {
		t.Errorf("singleton at minPts=1: %v", labels)
	}
	// But at minPts=3 the pair is noise.
	labels = Cluster(pts, 1.0, 3)
	if labels[0] != Noise || labels[1] != Noise {
		t.Errorf("pair at minPts=3 should be noise: %v", labels)
	}
}

func TestClusterChainIsDensityConnected(t *testing.T) {
	// A chain of points each within e of the next but the ends far apart:
	// density connection links them all (the anti-lossy-flock property).
	var pts []geom.Point
	for i := 0; i < 10; i++ {
		pts = append(pts, geom.Pt(float64(i)*0.9, 0))
	}
	labels := Cluster(pts, 1.0, 2)
	for i, l := range labels {
		if l != 0 {
			t.Fatalf("chain point %d has label %d; labels %v", i, l, labels)
		}
	}
}

func TestClusterBoundaryDistanceInclusive(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	labels := Cluster(pts, 1.0, 2) // distance exactly e
	if labels[0] != 0 || labels[1] != 0 {
		t.Errorf("distance == e must count as neighbors: %v", labels)
	}
}

func TestClusterEmptyAndSingle(t *testing.T) {
	if labels := Cluster(nil, 1, 2); len(labels) != 0 {
		t.Errorf("empty input: %v", labels)
	}
	labels := Cluster([]geom.Point{geom.Pt(1, 1)}, 1, 2)
	if labels[0] != Noise {
		t.Errorf("single point below minPts should be noise: %v", labels)
	}
}

func TestClusterDuplicatePoints(t *testing.T) {
	pts := []geom.Point{geom.Pt(5, 5), geom.Pt(5, 5), geom.Pt(5, 5)}
	labels := Cluster(pts, 0.5, 3)
	if labels[0] != 0 || labels[1] != 0 || labels[2] != 0 {
		t.Errorf("coincident points should form a cluster: %v", labels)
	}
}

func TestBorderPointJoinsLowestCluster(t *testing.T) {
	// Two dense cores with a border point reachable from both; it must join
	// the cluster discovered first (lowest id), deterministically.
	pts := []geom.Point{
		// Core A (indices 0-2) around x=0.
		geom.Pt(0, 0), geom.Pt(0.2, 0), geom.Pt(0.4, 0),
		// Core B (indices 3-5) around x=2.4.
		geom.Pt(2.4, 0), geom.Pt(2.6, 0), geom.Pt(2.8, 0),
		// Border point equidistant-ish from both cores (within 1.0 of 0.4
		// and of 2.4, but with fewer than 4 neighbors of its own).
		geom.Pt(1.4, 0),
	}
	labels := Cluster(pts, 1.0, 4)
	if labels[6] != labels[0] {
		t.Errorf("border point should join cluster of index 0: %v", labels)
	}
	if labels[3] == labels[0] {
		t.Errorf("cores merged unexpectedly: %v", labels)
	}
}

// The equivalence property: grid-accelerated DBSCAN labels the oracle's
// maximal clusters on random inputs. Each label is one maximal set, less the
// borders a lower label claimed, and noise is what no maximal set holds.
func TestPropGridEqualsBrute(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for iter := 0; iter < 120; iter++ {
		n := r.Intn(250)
		pts := make([]geom.Point, n)
		for i := range pts {
			// Mix of clustered and scattered points.
			if r.Intn(2) == 0 {
				cx, cy := float64(r.Intn(5))*8, float64(r.Intn(5))*8
				pts[i] = geom.Pt(cx+r.Float64()*2, cy+r.Float64()*2)
			} else {
				pts[i] = geom.Pt(r.Float64()*60, r.Float64()*60)
			}
		}
		eps := 0.3 + r.Float64()*3
		minPts := 1 + r.Intn(5)
		labels := Cluster(pts, eps, minPts)
		groups, maximal := groupsByLabel(labels), maximalOf(pts, eps, minPts)
		if len(groups) != len(maximal) {
			t.Fatalf("%d labels, %d maximal sets (eps=%g minPts=%d, n=%d)", len(groups), len(maximal), eps, minPts, n)
		}
		claimed := make([]bool, len(maximal))
	next:
		for l, g := range groups {
			for i, c := range maximal {
				if !claimed[i] && subsetInts(g, c) {
					claimed[i] = true
					continue next
				}
			}
			t.Fatalf("label %d = %v is inside no maximal set %v (eps=%g minPts=%d)", l, g, maximal, eps, minPts)
		}
		for _, c := range maximal {
			for _, m := range c {
				if labels[m] == Noise {
					t.Fatalf("point %d of maximal set %v labeled noise (eps=%g minPts=%d)", m, c, eps, minPts)
				}
			}
		}
	}
}

// subsetInts reports whether every member of a is in b.
func subsetInts(a, b []int) bool {
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}
