// Package grid provides the uniform-grid point index behind the
// ε-neighborhood searches of snapshot clustering: the incremental engine
// keeps one PointIndex over its objects and maintains it in place from tick
// to tick, and dbscan.Cluster builds one per snapshot. Points are bucketed into square cells of a caller-chosen size; the
// natural cell size is the query radius e, which confines every radius-e
// search to a 3×3 cell block.
//
// Candidate enumeration is deterministic: identical inputs and identical
// Insert/Remove/Move histories yield identical candidate orders, which
// keeps the clustering — and therefore the whole discovery pipeline —
// reproducible. The order itself is the index's business: callers that
// need one sort.
package grid

import (
	"math"

	"repro/internal/geom"
)

// maxCellCoord clamps a PointIndex's absolute cell coordinates, so that a
// huge or non-finite coordinate maps to a border cell instead of
// overflowing the conversion. Clamping is monotone, so every point within
// r of a query still lands in the query's (clamped) cell block.
const maxCellCoord = 1 << 30

// noLink ends a bucket chain; absent marks an id that is not indexed.
const (
	noLink = -1
	absent = -2
)

// PointIndex is a uniform grid over points, sized to the points rather than
// to their extent: a point's absolute cell coordinates are hashed into a
// table of about two buckets per point, and each bucket chains its points
// through per-point links. Building costs O(points) whatever the extent —
// 285 points spread over a 2 000-unit world at cell 10 need no 200 × 200
// cell array — and the index is maintained in place: Insert, Remove and
// Move touch one point, and a point that moves within its cell costs a
// position store.
//
// Points are named by dense ids: Reset(pts) indexes ids 0..len(pts)−1, and
// Insert adds any id (growing the id space). The index keeps its own copy
// of the positions. The zero value is not usable; construct with
// NewPointIndex. Reset reuses every array, so repeated Resets over similar
// point sets settle into a steady state with no allocation.
type PointIndex struct {
	cell  float64
	pts   []geom.Point // id → position (the index's own copy)
	key   []uint64     // id → packed cell coordinates
	next  []int32      // id → next id in its bucket, or noLink
	prev  []int32      // id → previous id in its bucket, noLink at the head, absent if not indexed
	head  []int32      // bucket → first id, or noLink
	shift uint         // 64 − log2(len(head)), for the multiplicative hash
	n     int          // indexed points
}

// NewPointIndex builds an index over pts with the given cell size. cell
// must be > 0.
//
// Degenerate geometry is harmless: a NaN or ±Inf coordinate, like a huge
// finite one, lands in a clamped border cell, and a non-finite point
// matches no query of finite r² (its distance to anything is NaN or +Inf).
func NewPointIndex(pts []geom.Point, cell float64) *PointIndex {
	if cell <= 0 {
		panic("grid: cell size must be positive")
	}
	idx := &PointIndex{cell: cell}
	idx.Reset(pts)
	return idx
}

// Reset re-indexes the given points in place — ids 0..len(pts)−1, nothing
// else — exactly as if the index had been rebuilt with NewPointIndex at the
// original cell size, but reusing the index's arrays.
func (idx *PointIndex) Reset(pts []geom.Point) {
	n := len(pts)
	idx.pts = append(idx.pts[:0], pts...)
	idx.key = growTo(idx.key, n)
	idx.next = growTo(idx.next, n)
	idx.prev = growTo(idx.prev, n)
	idx.sizeTable(n)
	// Head insertion in reverse leaves every chain in ascending id order.
	for i := n - 1; i >= 0; i-- {
		idx.link(int32(i))
	}
	idx.n = n
}

// sizeTable empties the bucket table and sizes it to a power of two of at
// least 2n buckets.
func (idx *PointIndex) sizeTable(n int) {
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	idx.head = growTo(idx.head, 1<<bits)
	for b := range idx.head {
		idx.head[b] = noLink
	}
	idx.shift = 64 - bits
}

// Insert indexes point i at p. i must not be indexed; ids past the current
// id space are added to it (the ids in between stay absent).
func (idx *PointIndex) Insert(i int, p geom.Point) {
	if i < len(idx.prev) && idx.prev[i] != absent {
		panic("grid: Insert of an indexed point")
	}
	for len(idx.prev) <= i {
		idx.pts = append(idx.pts, geom.Point{})
		idx.key = append(idx.key, 0)
		idx.next = append(idx.next, noLink)
		idx.prev = append(idx.prev, absent)
	}
	if 2*(idx.n+1) > len(idx.head) {
		idx.grow()
	}
	idx.pts[i] = p
	idx.link(int32(i))
	idx.n++
}

// Remove drops point i from the index. i must be indexed.
func (idx *PointIndex) Remove(i int) {
	if i >= len(idx.prev) || idx.prev[i] == absent {
		panic("grid: Remove of a point not indexed")
	}
	idx.unlink(int32(i))
	idx.n--
}

// Move puts the indexed point i at p, relinking it only when its cell
// changes.
func (idx *PointIndex) Move(i int, p geom.Point) {
	if i >= len(idx.prev) || idx.prev[i] == absent {
		panic("grid: Move of a point not indexed")
	}
	idx.pts[i] = p
	if idx.cellKey(p) != idx.key[i] {
		idx.unlink(int32(i))
		idx.link(int32(i))
	}
}

// grow doubles the bucket table and rehashes every indexed point.
func (idx *PointIndex) grow() {
	idx.sizeTable(len(idx.head))
	for i := len(idx.prev) - 1; i >= 0; i-- {
		if idx.prev[i] != absent {
			idx.link(int32(i))
		}
	}
}

// link pushes i, at idx.pts[i], onto the head of its bucket's chain.
func (idx *PointIndex) link(i int32) {
	k := idx.cellKey(idx.pts[i])
	b := idx.bucket(k)
	idx.key[i] = k
	idx.next[i], idx.prev[i] = idx.head[b], noLink
	if h := idx.head[b]; h != noLink {
		idx.prev[h] = i
	}
	idx.head[b] = i
}

// unlink takes i out of its bucket's chain and marks it absent.
func (idx *PointIndex) unlink(i int32) {
	next, prev := idx.next[i], idx.prev[i]
	if prev == noLink {
		idx.head[idx.bucket(idx.key[i])] = next
	} else {
		idx.next[prev] = next
	}
	if next != noLink {
		idx.prev[next] = prev
	}
	idx.prev[i] = absent
}

// cellKey packs p's clamped cell coordinates into one comparable key.
func (idx *PointIndex) cellKey(p geom.Point) uint64 {
	return packCell(cellCoord(p.X/idx.cell), cellCoord(p.Y/idx.cell))
}

func packCell(cx, cy int32) uint64 { return uint64(uint32(cx))<<32 | uint64(uint32(cy)) }

// bucket hashes a cell key onto the table (Fibonacci hashing: the high
// bits of the product mix both coordinates).
func (idx *PointIndex) bucket(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> idx.shift)
}

// cellCoord is the clamped cell coordinate of v, a coordinate already
// divided by the cell size. NaN clamps to the low border.
func cellCoord(v float64) int32 {
	c := math.Floor(v)
	if !(c >= -maxCellCoord) {
		return -maxCellCoord
	}
	if c > maxCellCoord {
		return maxCellCoord
	}
	return int32(c)
}

// Within appends to dst the ids of all indexed points within distance r of
// p (inclusive) and returns the extended slice, in no particular order
// (deterministic for a given index history). A negative or NaN r matches
// nothing.
func (idx *PointIndex) Within(p geom.Point, r float64, dst []int) []int {
	return within(idx, p, r, dst)
}

// Within32 is Within for callers that keep their ids as int32.
func (idx *PointIndex) Within32(p geom.Point, r float64, dst []int32) []int32 {
	return within(idx, p, r, dst)
}

func within[T int | int32](idx *PointIndex, p geom.Point, r float64, dst []T) []T {
	if idx.n == 0 || !(r >= 0) {
		return dst
	}
	r2 := r * r
	lox, hix := cellCoord((p.X-r)/idx.cell), cellCoord((p.X+r)/idx.cell)
	loy, hiy := cellCoord((p.Y-r)/idx.cell), cellCoord((p.Y+r)/idx.cell)
	// A block of more cells than the table has buckets costs more to probe
	// than a scan of every point; and once r² overflows, even an infinite
	// distance matches, which no cell block bounds.
	if math.IsInf(r2, 1) || (int64(hix)-int64(lox)+1)*(int64(hiy)-int64(loy)+1) > int64(len(idx.head)) {
		for i, q := range idx.pts {
			if idx.prev[i] != absent && geom.D2(p, q) <= r2 {
				dst = append(dst, T(i))
			}
		}
		return dst
	}
	for cx := lox; cx <= hix; cx++ {
		for cy := loy; cy <= hiy; cy++ {
			k := packCell(cx, cy)
			for i := idx.head[idx.bucket(k)]; i != noLink; i = idx.next[i] {
				if idx.key[i] == k && geom.D2(p, idx.pts[i]) <= r2 {
					dst = append(dst, T(i))
				}
			}
		}
	}
	return dst
}

// growTo reslices s to length n, reallocating only past its capacity.
func growTo[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}
