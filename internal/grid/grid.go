// Package grid provides uniform hash-grid spatial indexes used to accelerate
// the ε-neighborhood searches at the heart of DBSCAN (snapshot clustering)
// and of the CuTS filter step (range search over simplified sub-polylines).
//
// Two indexes are provided: PointIndex for point sets and RectIndex for
// rectangle (bounding-box) sets. Both bucket geometry into square cells of a
// caller-chosen size — for DBSCAN the natural cell size is the query radius
// e, which confines every radius-e search to a 3×3 cell block.
//
// Candidate enumeration is deterministic: cells are scanned in row-major
// order and entries within a cell preserve insertion order, so identical
// inputs yield identical candidate orders (which keeps the clustering — and
// therefore the whole discovery pipeline — reproducible).
package grid

import (
	"math"

	"repro/internal/geom"
)

// maxPointCells caps the dense point-grid resolution; when the data extent
// divided by the requested cell size would exceed it, the cell size is
// grown.
const maxPointCells = 1 << 20

// PointIndex is a uniform grid over points, stored as a dense array sized
// to the points' bounding box (hash-map grids dominated the clustering
// profile). The zero value is not usable; construct with NewPointIndex.
// The index is reusable across point sets via Reset, which keeps the cell
// buckets' backing arrays — the per-tick rebuild in snapshot clustering
// would otherwise churn the allocator.
type PointIndex struct {
	baseCell float64 // requested cell size; Reset re-derives cell from it
	cell     float64
	origin   geom.Point
	nx, ny   int
	cells    [][]int
	used     []int // non-empty cell indices, for O(points) clearing
	pts      []geom.Point
}

// NewPointIndex builds an index over pts with the given cell size (possibly
// grown to respect the resolution cap). The caller keeps ownership of pts;
// the index stores a copy of the slice header only. cell must be > 0.
//
// The constructor is defensive against degenerate geometry: when any
// coordinate is NaN or ±Inf the grid would compute a non-finite extent (and
// a bogus cell count could panic the allocation), so the index falls back
// to a single cell holding every point. Queries stay correct — the radius
// test still runs per point — just unaccelerated.
func NewPointIndex(pts []geom.Point, cell float64) *PointIndex {
	if cell <= 0 {
		panic("grid: cell size must be positive")
	}
	idx := &PointIndex{baseCell: cell}
	idx.Reset(pts)
	return idx
}

// Reset re-indexes the given points in place, exactly as if the index had
// been rebuilt with NewPointIndex at the original cell size, but reusing
// the cell buckets' backing arrays. Only the buckets that were populated
// are cleared (O(points), not O(cells)), so repeated Resets over similar
// point sets settle into a steady state with no per-call allocation.
func (idx *PointIndex) Reset(pts []geom.Point) {
	for _, c := range idx.used {
		idx.cells[c] = idx.cells[c][:0]
	}
	idx.used = idx.used[:0]
	idx.cell = idx.baseCell
	idx.pts = pts
	if len(pts) == 0 {
		idx.nx, idx.ny = 0, 0
		return
	}
	// The bounds by plain comparisons: geom.RectOf's math.Min/math.Max do
	// not inline, and this loop runs once per clustered tick. A comparison
	// skips a NaN where math.Min would carry it into the extent, hence the
	// flag (±Inf reaches the extent on its own).
	minX, minY, maxX, maxY := pts[0].X, pts[0].Y, pts[0].X, pts[0].Y
	hasNaN := false
	for _, p := range pts {
		if p.X < minX {
			minX = p.X
		} else if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		} else if p.Y > maxY {
			maxY = p.Y
		}
		if p.X != p.X || p.Y != p.Y {
			hasNaN = true
		}
	}
	idx.origin = geom.Pt(minX, minY)
	w := maxX - minX
	h := maxY - minY
	if hasNaN || !finiteExtent(w, h) {
		idx.origin = geom.Pt(0, 0)
		idx.nx, idx.ny = 1, 1
	} else {
		for {
			nx := int(w/idx.cell) + 1
			ny := int(h/idx.cell) + 1
			// Division-based cap: nx*ny can wrap the int range on huge
			// (finite) extents, so never form the product.
			if nx > 0 && ny > 0 && nx <= maxPointCells && ny <= maxPointCells/nx {
				idx.nx, idx.ny = nx, ny
				break
			}
			idx.cell *= 2
		}
	}
	idx.cells = resizeCells(idx.cells, idx.nx*idx.ny)
	for i, p := range pts {
		c := idx.cellOf(p)
		if len(idx.cells[c]) == 0 {
			idx.used = append(idx.used, c)
		}
		idx.cells[c] = append(idx.cells[c], i)
	}
}

// resizeCells reslices a Reset's cell array to n buckets. Reslicing within
// capacity keeps the hidden buckets' backing arrays; the caller has already
// emptied every populated bucket, so a resurrected bucket is always empty.
func resizeCells(cells [][]int, n int) [][]int {
	if n <= cap(cells) {
		return cells[:n]
	}
	return append(cells[:cap(cells)], make([][]int, n-cap(cells))...)
}

// finiteExtent reports whether a grid extent is usable: non-finite widths
// arise from NaN/Inf input coordinates and would corrupt the cell math
// (the shared predicate is geom.Finite).
func finiteExtent(w, h float64) bool {
	return geom.Finite(w) && geom.Finite(h)
}

func (idx *PointIndex) cellOf(p geom.Point) int {
	cx := clampCell(int(math.Floor((p.X-idx.origin.X)/idx.cell)), idx.nx)
	cy := clampCell(int(math.Floor((p.Y-idx.origin.Y)/idx.cell)), idx.ny)
	return cx*idx.ny + cy
}

// Within appends to dst the indices of all points within distance r of p
// (inclusive) and returns the extended slice. Results appear in cell
// row-major order, insertion order within a cell.
func (idx *PointIndex) Within(p geom.Point, r float64, dst []int) []int {
	if len(idx.pts) == 0 {
		return dst
	}
	lox := clampCell(int(math.Floor((p.X-r-idx.origin.X)/idx.cell)), idx.nx)
	hix := clampCell(int(math.Floor((p.X+r-idx.origin.X)/idx.cell)), idx.nx)
	loy := clampCell(int(math.Floor((p.Y-r-idx.origin.Y)/idx.cell)), idx.ny)
	hiy := clampCell(int(math.Floor((p.Y+r-idx.origin.Y)/idx.cell)), idx.ny)
	r2 := r * r
	for cx := lox; cx <= hix; cx++ {
		row := cx * idx.ny
		for cy := loy; cy <= hiy; cy++ {
			for _, i := range idx.cells[row+cy] {
				if geom.D2(p, idx.pts[i]) <= r2 {
					dst = append(dst, i)
				}
			}
		}
	}
	return dst
}

// Len returns the number of indexed points.
func (idx *PointIndex) Len() int { return len(idx.pts) }

// maxRectCells caps the dense rect-grid resolution; when the data extent
// divided by the requested cell size would exceed it, the cell size is
// grown. 1<<20 cells ≈ 8 MB of slice headers at most.
const maxRectCells = 1 << 20

// RectIndex is a uniform grid over rectangles; each rectangle is registered
// in every cell it overlaps. The grid is a dense array sized to the bounding
// box of the indexed rectangles (hash maps proved to dominate the filter
// step's profile), so indexing costs O(rects + cells touched) and queries
// touch only slice memory. The zero value is an empty index; Reset fills it,
// and refills it for the next rectangle set on the same cell buckets — the
// filter's partition after partition — as PointIndex.Reset does for points.
type RectIndex struct {
	cell       float64
	origin     geom.Point
	nx, ny     int
	cells      [][]int
	used       []int // non-empty cell indices, for O(rects) clearing
	rects      []geom.Rect
	visited    []int // query generation stamps for deduplication
	gen        int
	everything geom.Rect
}

// NewRectIndex builds an index over rects with the given cell size. The
// effective cell size may be larger when the data extent is huge relative
// to it (resolution cap). Empty rectangles are skipped (they can never
// match a query).
func NewRectIndex(rects []geom.Rect, cell float64) *RectIndex {
	idx := &RectIndex{}
	idx.Reset(rects, cell)
	return idx
}

// Reset re-indexes the given rectangles at the given cell size, exactly as
// NewRectIndex would, but on the index's own buffers: only the buckets the
// previous set populated are cleared, and their backing arrays stay, so
// Resets over similar sets settle into a steady state with no allocation.
// The caller keeps ownership of rects; cell must be > 0.
func (idx *RectIndex) Reset(rects []geom.Rect, cell float64) {
	if cell <= 0 {
		panic("grid: cell size must be positive")
	}
	for _, c := range idx.used {
		idx.cells[c] = idx.cells[c][:0]
	}
	idx.used = idx.used[:0]
	bounds := geom.EmptyRect()
	for _, r := range rects {
		bounds = bounds.Union(r)
	}
	idx.cell, idx.rects, idx.everything = cell, rects, bounds
	// Stale stamps are harmless: gen only grows, so none equals a later one.
	if len(rects) <= cap(idx.visited) {
		idx.visited = idx.visited[:len(rects)]
	} else {
		idx.visited = make([]int, len(rects))
	}
	if bounds.IsEmpty() {
		idx.nx, idx.ny, idx.cells = 0, 0, idx.cells[:0]
		return
	}
	idx.origin = geom.Pt(bounds.MinX, bounds.MinY)
	w := bounds.MaxX - bounds.MinX
	h := bounds.MaxY - bounds.MinY
	if !finiteExtent(w, h) {
		// Defensive single-cell fallback, like PointIndex: NaN/Inf
		// rectangle bounds must not panic the allocation below. The
		// everything-box becomes the whole plane — a poisoned union would
		// fail every Intersects pre-check and hide the finite rectangles.
		idx.origin = geom.Pt(0, 0)
		idx.nx, idx.ny = 1, 1
		idx.everything = geom.Rect{
			MinX: math.Inf(-1), MinY: math.Inf(-1),
			MaxX: math.Inf(1), MaxY: math.Inf(1),
		}
	} else {
		// Grow the cell until the grid fits the resolution cap. The cap is
		// checked by division — nx*ny can wrap the int range on huge
		// (finite) extents.
		for {
			nx := int(w/idx.cell) + 1
			ny := int(h/idx.cell) + 1
			if nx > 0 && ny > 0 && nx <= maxRectCells && ny <= maxRectCells/nx {
				idx.nx, idx.ny = nx, ny
				break
			}
			idx.cell *= 2
		}
	}
	idx.cells = resizeCells(idx.cells, idx.nx*idx.ny)
	for i, r := range rects {
		if r.IsEmpty() {
			continue
		}
		lox, loy, hix, hiy := idx.cellRange(r)
		for cx := lox; cx <= hix; cx++ {
			row := cx * idx.ny
			for cy := loy; cy <= hiy; cy++ {
				c := row + cy
				if len(idx.cells[c]) == 0 {
					idx.used = append(idx.used, c)
				}
				idx.cells[c] = append(idx.cells[c], i)
			}
		}
	}
}

// cellRange returns the clamped cell-coordinate range covered by r. Queries
// extending beyond the data bounds clamp to the border cells, which is
// correct because no rectangle lives outside the bounds.
func (idx *RectIndex) cellRange(r geom.Rect) (lox, loy, hix, hiy int) {
	lox = clampCell(int(math.Floor((r.MinX-idx.origin.X)/idx.cell)), idx.nx)
	hix = clampCell(int(math.Floor((r.MaxX-idx.origin.X)/idx.cell)), idx.nx)
	loy = clampCell(int(math.Floor((r.MinY-idx.origin.Y)/idx.cell)), idx.ny)
	hiy = clampCell(int(math.Floor((r.MaxY-idx.origin.Y)/idx.cell)), idx.ny)
	return lox, loy, hix, hiy
}

func clampCell(c, n int) int {
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

// Intersecting appends to dst the indices of all rectangles that intersect
// query, deduplicated, and returns the extended slice. Not safe for
// concurrent use (the dedup stamps are shared state).
func (idx *RectIndex) Intersecting(query geom.Rect, dst []int) []int {
	if query.IsEmpty() || len(idx.cells) == 0 || !query.Intersects(idx.everything) {
		return dst
	}
	idx.gen++
	g := idx.gen
	lox, loy, hix, hiy := idx.cellRange(query)
	for cx := lox; cx <= hix; cx++ {
		row := cx * idx.ny
		for cy := loy; cy <= hiy; cy++ {
			for _, i := range idx.cells[row+cy] {
				if idx.visited[i] == g {
					continue
				}
				idx.visited[i] = g
				if idx.rects[i].Intersects(query) {
					dst = append(dst, i)
				}
			}
		}
	}
	return dst
}

// Len returns the number of indexed rectangles (including empty ones, which
// are never returned by queries).
func (idx *RectIndex) Len() int { return len(idx.rects) }
