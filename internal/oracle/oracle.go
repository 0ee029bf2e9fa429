// Package oracle is the reference answer to a convoy query: a deliberately
// naive transcription of the source paper's definition (Jeung et al.,
// "Discovery of convoys in trajectory databases", VLDB 2008, §3), written to
// be read rather than to be fast. Every execution strategy in the repository
// — CMC and the CuTS family, serial or parallel, incremental or from
// scratch, streamed, partitioned, fed tick by tick — is tested against it.
//
// It imports only model and geom: no grid, no cursor, no incremental
// engine, no candidate pruning and nothing of the miner it checks.
//
// # The definition it transcribes
//
// A convoy query (m, k, e) asks for every pair (O, [s, t]) such that
//
//  1. |O| ≥ m and t − s + 1 ≥ k;
//  2. at every tick of [s, t], O lies inside one density-connected cluster
//     of the full snapshot: the locations of every object alive at that
//     tick (Trajectory.LocationAt, so a sampling gap is filled by linear
//     interpolation), clustered with distance threshold e and density
//     threshold m (DBSCAN's Definitions 1–2 with neighbourhoods that
//     include the point itself; two points are neighbours when their
//     squared distance is at most e², the one comparison the miner makes);
//  3. no other such pair has a superset of O over a superinterval of
//     [s, t].
//
// This is the source paper's reading — CMC's. A group can satisfy it while
// being connected only through a bridging object: one that links the group
// in the snapshot without staying with it for k ticks. CuTS refines a
// candidate by clustering only the candidate's support objects, so where a
// bridge is missing from that support its reading of the same data may
// differ; Yoon & Shahabi ("Accurate Discovery of Valid Convoys from Moving
// Object Trajectories", ICDMW 2009) call the groups that do not depend on
// such bridges valid convoys. The oracle answers the source paper's
// question, bridges included.
//
// # Cost
//
// O(n²) distance tests per tick, and every start tick followed forward for
// as long as some group from it survives. The one shortcut: a cluster that
// lies inside one cluster of the previous tick starts no chain, because every
// set inside it was already together a tick earlier and cannot start an
// answer there. Usable at hundreds of objects and thousands of ticks; not a
// miner.
package oracle

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/geom"
	"repro/internal/model"
)

// Convoy is one answer: the ascending member IDs and the inclusive tick
// interval they travel together. Its fields are core.Convoy's, so a test
// converts one into the other with a plain type conversion.
type Convoy struct {
	Objects    []model.ObjectID
	Start, End model.Tick
}

// String renders the convoy as "⟨o1,o2,[s,e]⟩", as core.Convoy does.
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

// Convoys answers the query (m, k, e) over db: every maximal convoy, sorted
// by start tick, then end tick, then member list.
func Convoys(db *model.DB, m int, k int64, e float64) []Convoy {
	lo, hi, ok := db.TimeRange()
	if !ok {
		return nil
	}
	n := model.TickSpan(lo, hi)
	clusters := make([][][]model.ObjectID, n)
	for i := range clusters {
		clusters[i] = snapshotClusters(db, lo+model.Tick(i), m, e)
	}

	var found []Convoy
	for s := int64(0); s < n; s++ {
		// Every object set that has stayed inside one cluster of every
		// snapshot since tick s. A set that stops fitting in any cluster is
		// reported over the ticks it did fit; its intersections with the
		// new clusters carry on from the same start.
		var live [][]model.ObjectID
		for _, c := range clusters[s] {
			// A cluster that fitted in one cluster at s−1 starts nothing:
			// any set inside it was together a tick earlier.
			if s == 0 || !inSome(c, clusters[s-1]) {
				live = append(live, c)
			}
		}
		for t := s + 1; len(live) > 0; t++ {
			var next [][]model.ObjectID
			seen := map[string]bool{}
			for _, x := range live {
				stays := false
				if t < n {
					for _, c := range clusters[t] {
						y := intersect(x, c)
						if len(y) == len(x) {
							stays = true
						}
						if key := fmt.Sprint(y); len(y) >= m && !seen[key] {
							seen[key] = true
							next = append(next, y)
						}
					}
				}
				// A set that also fitted a cluster at s−1 is the tail of a
				// longer answer from an earlier start; leaving it out only
				// spares maximal the work of dropping it.
				if !stays && t-s >= k && !(s > 0 && inSome(x, clusters[s-1])) {
					found = append(found, Convoy{Objects: x, Start: lo + model.Tick(s), End: lo + model.Tick(t-1)})
				}
			}
			if t == n {
				break
			}
			live = next
		}
	}
	return maximal(found)
}

// snapshotClusters returns the density-connected clusters (DBSCAN with distance e
// and density m, neighbourhoods including the point itself) of the objects
// alive at tick t, each as ascending IDs. A border object within e of the
// cores of two clusters belongs to both.
func snapshotClusters(db *model.DB, t model.Tick, m int, e float64) [][]model.ObjectID {
	var ids []model.ObjectID
	var pts []geom.Point
	for _, tr := range db.Trajectories() {
		if p, ok := tr.LocationAt(t); ok {
			ids = append(ids, tr.ID)
			pts = append(pts, p)
		}
	}
	near := func(i, j int) bool { return geom.D2(pts[i], pts[j]) <= e*e }
	isCore := make([]bool, len(pts))
	for i := range pts {
		count := 0
		for j := range pts {
			if near(i, j) {
				count++
			}
		}
		isCore[i] = count >= m
	}

	var out [][]model.ObjectID
	seen := map[string]bool{}
	for x := range pts {
		if !isCore[x] {
			continue
		}
		// Everything density-reachable from the core object x.
		reached := make([]bool, len(pts))
		reached[x] = true
		queue := []int{x}
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			if !isCore[c] {
				continue
			}
			for q := range pts {
				if !reached[q] && near(c, q) {
					reached[q] = true
					queue = append(queue, q)
				}
			}
		}
		var members []model.ObjectID
		for i, r := range reached {
			if r {
				members = append(members, ids[i])
			}
		}
		if key := fmt.Sprint(members); !seen[key] {
			seen[key] = true
			out = append(out, members)
		}
	}
	return out
}

// intersect returns the IDs in both ascending lists.
func intersect(a, b []model.ObjectID) []model.ObjectID {
	var out []model.ObjectID
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// inSome reports whether one of the clusters holds every member of x.
func inSome(x []model.ObjectID, clusters [][]model.ObjectID) bool {
	for _, c := range clusters {
		if len(intersect(x, c)) == len(x) {
			return true
		}
	}
	return false
}

// covers reports whether o has every member of c over c's whole interval.
func covers(o, c Convoy) bool {
	return o.Start <= c.Start && c.End <= o.End && len(intersect(c.Objects, o.Objects)) == len(c.Objects)
}

// maximal drops every convoy another one covers (keeping one of equal
// twins) and sorts the rest by start, end and member list.
func maximal(cs []Convoy) []Convoy {
	var out []Convoy
	for i, c := range cs {
		dominated := false
		for j, o := range cs {
			if i != j && covers(o, c) && (!covers(c, o) || j < i) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		for x := 0; x < len(a.Objects) && x < len(b.Objects); x++ {
			if a.Objects[x] != b.Objects[x] {
				return a.Objects[x] < b.Objects[x]
			}
		}
		return len(a.Objects) < len(b.Objects)
	})
	return out
}
