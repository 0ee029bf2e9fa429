// Package increment maintains per-tick snapshot DBSCAN incrementally: an
// Engine keeps the previous tick's positions, ε-neighborhoods and core
// flags, diffs each new snapshot against them, and re-clusters only the
// objects whose neighborhoods can have changed — the moved, appeared and
// vanished ones plus their ε-neighbors. Between consecutive ticks of a
// trajectory database most objects barely move (and in low-churn feeds
// most do not move at all), so the expensive part of the per-tick pass —
// the radius queries and neighborhood sorts — is skipped for the clean
// majority. Cluster labels are then recomputed by a cheap flood fill over
// the maintained adjacency, which touches only slice memory.
//
// An Engine is the repository's one clusterer of positions: every
// snapshot DBSCAN pass — a feed's ticks, the CMC scan, the CuTS family's
// refinement windows, a stateless core.DBSCANClusterer call — is one of its
// passes. A cluster is a maximal density-connected set (the paper's
// Definitions 1–2): one per core component, holding its cores and every
// border in a core's neighborhood, so a border may belong to several
// clusters. Two points are neighbors when D2(p, q) ≤ ε², a predicate that
// is symmetric in IEEE arithmetic — the property the symmetric
// neighborhood patching relies on — and that a non-finite point fails
// even against itself, so such a point is in no neighborhood. Each
// cluster is an ascending id list and the list is ordered by ascending
// member list; internal/oracle's Clusters gives the same answer naively,
// and the tests hold every pass to it.
//
// When the diff is not worth it the Engine makes a full pass instead: the
// first tick, a Reset, a churn fraction above the configured threshold,
// and every tick of an Engine whose threshold is ≤ 0. Degenerate input —
// duplicate IDs, non-finite coordinates, mismatched slice lengths — gets a
// full pass too, after which the Engine drops all state, so garbage input
// can never seed an incremental pass.
//
// The full rebuild is a production path in its own right, not only a
// fallback: on data where everything moves every tick (the paper's Truck
// and Cattle, a CuTS refinement window over a handful of objects) every
// pass is one. It therefore allocates nothing at steady state beyond the
// cluster lists it returns, and nothing at all on a tick whose clusters
// repeat the last tick's (TestFullPassSteadyStateAllocs), and it picks
// its neighborhood scan by snapshot size: all pairs up to allPairsMax
// objects, the grid above. The incremental pass never rebuilds the grid it
// queries: it inserts, removes and moves the dirty objects only.
//
// An Engine is single-stream state: it is NOT safe for concurrent use.
// Every Tick answers exactly for the snapshot it is given no matter what
// came before — the carried state only determines how much work the pass
// skips — but interleaving unrelated streams destroys the reuse, so the
// parallel CMC scan gives each worker its own Engine over a contiguous
// tick range (see par.OrderedChunks).
package increment

import (
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/model"
)

// allPairsMax is the largest snapshot a full pass clusters without the grid:
// up to this many objects, testing every pair in slot order costs less than
// bucketing the points and sorting what the 3×3 cell scans return, and the
// neighborhoods come out ascending by construction. The two scans break
// even between 128 and 192 objects (BenchmarkFullPassNeighborhoods: all
// pairs wins 6× at 12, 2.2× at 64, 1.3× at 128 and loses 1.1× at 192).
const allPairsMax = 128

// DefaultChurnThreshold is the churn fraction above which an incremental
// tick is abandoned for a full rebuild. Diffing costs roughly one
// neighborhood recomputation per dirty object plus patching its neighbors,
// so beyond ~a quarter of the population the from-scratch pass (which
// never patches) is at least as cheap.
const DefaultChurnThreshold = 0.25

// Pass describes what one Tick call did.
type Pass struct {
	// Full reports a from-scratch pass: the first tick, churn above the
	// threshold (or a threshold ≤ 0), a degenerate snapshot, or a Reset
	// since the last tick.
	Full bool
	// Reclustered counts the objects whose neighborhoods were recomputed
	// (the whole snapshot on a full pass; moved+appeared+vanished on an
	// incremental one).
	Reclustered int
}

// Engine is the incremental clustering state for one (eps, m) key over one
// tick stream. Construct with New; not safe for concurrent use.
type Engine struct {
	eps   float64
	m     int
	churn float64

	started bool

	// Slot space: each tracked object occupies a slot in the dense arrays
	// below for as long as it stays alive; slots of vanished objects are
	// recycled through free. Working in slots keeps the hot loops on
	// contiguous memory instead of map lookups.
	slotOf map[model.ObjectID]int32 // filled lazily, see mapSlots
	mapped bool
	idOf   []model.ObjectID
	alive  []bool
	pos    []geom.Point
	nh     [][]int32 // ε-neighborhood as ascending slots, self included
	free   []int32

	// Generation stamps replace per-tick clearing of the slot arrays.
	gen      uint64
	seen     []uint64 // slot → gen it was last present in (diff phase)
	dirtyGen []uint64 // slot → gen it was last dirty in (patch phase)

	aliveSlots []int32          // slots alive as of the last tick, snapshot order
	prevIDs    []model.ObjectID // last tick's ids, for the same-order fast path
	snapSlot   []int32          // snapshot index → slot
	dup        map[model.ObjectID]struct{}

	// idx is the grid over slot space: slot s at pos[s]. While gridOK it
	// holds exactly the alive slots, and the incremental pass maintains it
	// (insert, remove, move); a full pass on the grid rebuilds it, and an
	// all-pairs pass or a Reset leaves it stale until the next incremental
	// pass rebuilds it.
	idx    *grid.PointIndex
	gridOK bool

	movedIdx    []int32 // scratch: snapshot indices of moved objects
	appearedIdx []int32 // scratch: snapshot indices of appeared objects
	vanishedSl  []int32 // scratch: slots of vanished objects
	newNH       []int32 // scratch: recomputed neighborhood

	// Flood-fill scratch, also stamp-based.
	emitGen   uint64
	visited   []uint64 // slot → emitGen it was labeled a core in
	memberTag uint64
	memberGen []uint64 // slot → memberTag of the component collecting it
	queue     []int32
	members   []int32 // member slots of every cluster of the tick, back to back
	ends      []int   // cluster i is members[ends[i-1]:ends[i]]

	// The tick's cluster lists are built and sorted in scratch (idsBuf,
	// lists) and compared against last, the lists the engine handed out
	// most recently: a tick that repeats them hands them out again.
	idsBuf []model.ObjectID
	lists  [][]model.ObjectID
	last   [][]model.ObjectID

	fullPasses  int64
	incPasses   int64
	reclustered int64
	objectsSeen int64
}

// New returns an empty Engine for the given clustering key. m is the
// DBSCAN density threshold (neighborhood size including self);
// churnThreshold is the dirty fraction above which a tick falls back to a
// full rebuild (≤ 0: every tick is one).
func New(eps float64, m int, churnThreshold float64) *Engine {
	return &Engine{eps: eps, m: m, churn: churnThreshold, slotOf: make(map[model.ObjectID]int32)}
}

// Reset drops all cross-tick state (the next Tick is a full pass). The
// lifetime counters are preserved.
func (e *Engine) Reset() {
	e.started = false
	e.mapped = false
	e.gridOK = false
	e.idOf = e.idOf[:0]
	e.alive = e.alive[:0]
	e.pos = e.pos[:0]
	e.nh = e.nh[:0]
	e.seen = e.seen[:0]
	e.dirtyGen = e.dirtyGen[:0]
	e.visited = e.visited[:0]
	e.memberGen = e.memberGen[:0]
	e.free = e.free[:0]
	e.aliveSlots = e.aliveSlots[:0]
	e.prevIDs = e.prevIDs[:0]
}

// Counters returns the lifetime pass accounting: full and incremental
// passes, total objects re-clustered, and total objects seen. The reuse
// ratio is 1 − reclustered/seen.
func (e *Engine) Counters() (full, incremental, reclustered, seen int64) {
	return e.fullPasses, e.incPasses, e.reclustered, e.objectsSeen
}

// Tick advances the engine by one snapshot (parallel ids/pts slices,
// consecutive ticks of one stream) and returns its maximal DBSCAN clusters
// — each an ascending id list, the cluster list ordered by ascending
// member list — plus what the pass did. The lists are the caller's to keep
// and read: a later tick whose clusters repeat them hands the same lists
// out again, and the engine never writes one it has returned.
func (e *Engine) Tick(ids []model.ObjectID, pts []geom.Point) ([][]model.ObjectID, Pass) {
	n := len(ids)
	e.objectsSeen += int64(n)
	e.gen++
	g := e.gen
	if !e.cleanInput(ids, pts) {
		// Degenerate input: answer with a full pass, then drop all state,
		// so the next good tick starts from scratch. Mismatched slices have
		// no answer: their pass is over nothing.
		if len(ids) != len(pts) {
			ids, pts = nil, nil
		}
		out := e.full(ids, pts)
		e.Reset()
		return out, Pass{Full: true, Reclustered: len(ids)}
	}
	if !e.started || e.churn <= 0 {
		return e.full(ids, pts), Pass{Full: true, Reclustered: n}
	}

	// Diff against the previous tick.
	moved := e.movedIdx[:0]
	appeared := e.appearedIdx[:0]
	vanished := e.vanishedSl[:0]
	fastSame := slices.Equal(ids, e.prevIDs)
	e.snapSlot = growTo(e.snapSlot, n)
	if fastSame {
		// Identical id sequence: snapSlot is already correct and nothing
		// appeared or vanished — only position compares remain.
		for i := range ids {
			if e.pos[e.snapSlot[i]] != pts[i] {
				moved = append(moved, int32(i))
			}
		}
	} else {
		e.mapSlots()
		for i, id := range ids {
			s, ok := e.slotOf[id]
			if !ok {
				e.snapSlot[i] = -1
				appeared = append(appeared, int32(i))
				continue
			}
			e.snapSlot[i] = s
			e.seen[s] = g
			if e.pos[s] != pts[i] {
				moved = append(moved, int32(i))
			}
		}
		for _, s := range e.aliveSlots {
			if e.seen[s] != g {
				vanished = append(vanished, s)
			}
		}
	}
	e.movedIdx, e.appearedIdx, e.vanishedSl = moved, appeared, vanished

	dirty := len(moved) + len(appeared) + len(vanished)
	if float64(dirty) > e.churn*float64(max(n, 1)) {
		return e.full(ids, pts), Pass{Full: true, Reclustered: n}
	}

	// Incremental pass. Phase 1: allocate slots for appeared objects and
	// stamp every dirty slot, so the patch phases can tell clean neighbors
	// (whose lists must be edited in place) from dirty ones (recomputed
	// from the grid anyway). A maintained grid follows each change.
	for _, i := range appeared {
		s := e.allocSlot(ids[i], pts[i])
		e.snapSlot[i] = s
		e.seen[s] = g
		e.dirtyGen[s] = g
		if e.gridOK {
			e.idx.Insert(int(s), pts[i])
		}
	}
	for _, i := range moved {
		s := e.snapSlot[i]
		e.dirtyGen[s] = g
		e.pos[s] = pts[i]
		if e.gridOK {
			e.idx.Move(int(s), pts[i])
		}
	}

	// Phase 2: unlink vanished objects from their clean neighbors. Marking
	// all of them dead first keeps vanished↔vanished pairs from patching
	// each other.
	for _, s := range vanished {
		e.alive[s] = false
		if e.gridOK {
			e.idx.Remove(int(s))
		}
	}
	for _, s := range vanished {
		for _, q := range e.nh[s] {
			if q == s || !e.alive[q] || e.dirtyGen[q] == g {
				continue
			}
			e.nh[q] = removeSorted(e.nh[q], s)
		}
	}

	// Phase 3: a stale grid (the last full pass went all-pairs) is rebuilt
	// over the alive slots once; from here on it is maintained.
	if !e.gridOK {
		e.indexSlots()
	}

	// Phase 4: recompute each dirty object's neighborhood and patch the
	// symmetric entries of its clean neighbors. Both sides of every edge
	// use the same predicate on the same positions, so the adjacency ends
	// up exactly the from-scratch one.
	for _, i := range appeared {
		e.recompute(e.snapSlot[i], g)
	}
	for _, i := range moved {
		e.recompute(e.snapSlot[i], g)
	}

	// Phase 5: retire vanished slots and refresh the tick bookkeeping.
	for _, s := range vanished {
		delete(e.slotOf, e.idOf[s])
		e.nh[s] = e.nh[s][:0]
		e.free = append(e.free, s)
	}
	if !fastSame {
		e.aliveSlots = e.aliveSlots[:0]
		for i := 0; i < n; i++ {
			e.aliveSlots = append(e.aliveSlots, e.snapSlot[i])
		}
		e.prevIDs = append(e.prevIDs[:0], ids...)
	}
	e.incPasses++
	e.reclustered += int64(dirty)
	return e.emit(), Pass{Full: false, Reclustered: dirty}
}

// cleanInput validates one snapshot: parallel slices, finite coordinates,
// no duplicate ids. Ascending id sequences (what database replays produce)
// validate without the set.
func (e *Engine) cleanInput(ids []model.ObjectID, pts []geom.Point) bool {
	if len(ids) != len(pts) {
		return false
	}
	for _, p := range pts {
		if !geom.Finite(p.X) || !geom.Finite(p.Y) {
			return false
		}
	}
	asc := true
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			if ids[i] == ids[i-1] {
				return false
			}
			asc = false
			break
		}
	}
	if asc {
		return true
	}
	if e.dup == nil {
		e.dup = make(map[model.ObjectID]struct{}, len(ids))
	} else {
		clear(e.dup)
	}
	for _, id := range ids {
		if _, ok := e.dup[id]; ok {
			return false
		}
		e.dup[id] = struct{}{}
	}
	return true
}

// full is a full pass: it rebuilds all state from the snapshot, counts the
// pass and emits its clusters.
func (e *Engine) full(ids []model.ObjectID, pts []geom.Point) [][]model.ObjectID {
	e.rebuild(ids, pts)
	e.fullPasses++
	e.reclustered += int64(len(ids))
	return e.emit()
}

// rebuild recomputes all state from the snapshot (slots become the
// snapshot indices), reusing every backing array.
func (e *Engine) rebuild(ids []model.ObjectID, pts []geom.Point) {
	n := len(ids)
	e.ensureSlots(n)
	e.mapped = false
	e.free = e.free[:0]
	e.aliveSlots = e.aliveSlots[:0]
	e.snapSlot = growTo(e.snapSlot, n)
	g := e.gen
	for i := 0; i < n; i++ {
		s := int32(i)
		e.idOf[i] = ids[i]
		e.alive[i] = true
		e.pos[i] = pts[i]
		e.seen[i] = g
		e.dirtyGen[i] = g
		e.snapSlot[i] = s
		e.aliveSlots = append(e.aliveSlots, s)
	}
	if n <= allPairsMax {
		e.allPairs(pts)
		e.gridOK = false
	} else {
		e.gridPairs(pts)
	}
	e.prevIDs = append(e.prevIDs[:0], ids...)
	e.started = true
}

// gridPairs fills every neighborhood of a rebuilt snapshot (slot =
// snapshot index) from the grid, rebuilt over the snapshot.
func (e *Engine) gridPairs(pts []geom.Point) {
	e.index().Reset(pts)
	e.gridOK = true
	for i, p := range pts {
		e.nh[i] = e.neighborhood(p, e.nh[i][:0])
	}
}

// allPairs fills every neighborhood of a rebuilt snapshot (slot = snapshot
// index) by testing each pair once with the grid's predicate. Slot i's list
// receives the slots below i while they are the outer loop, then i itself,
// then the slots above it: ascending without a sort. Self passes the same
// test, so a non-finite point is in no neighborhood, not even its own.
func (e *Engine) allPairs(pts []geom.Point) {
	eps2 := e.eps * e.eps
	for i := range pts {
		e.nh[i] = e.nh[i][:0]
	}
	for i, p := range pts {
		if geom.D2(p, p) <= eps2 {
			e.nh[i] = append(e.nh[i], int32(i))
		}
		for j := i + 1; j < len(pts); j++ {
			if geom.D2(p, pts[j]) <= eps2 {
				e.nh[i] = append(e.nh[i], int32(j))
				e.nh[j] = append(e.nh[j], int32(i))
			}
		}
	}
}

// mapSlots brings slotOf up to date with the alive slots. A full pass leaves
// the map stale, because only the diff of a tick whose id sequence changed
// reads it — and on a stream that rebuilds every tick that is a small share
// of the ticks; from here on the incremental pass maintains it.
func (e *Engine) mapSlots() {
	if e.mapped {
		return
	}
	clear(e.slotOf)
	for _, s := range e.aliveSlots {
		e.slotOf[e.idOf[s]] = s
	}
	e.mapped = true
}

// ensureSlots grows every slot-indexed array to length n, preserving the
// backing arrays (and the per-slot neighborhood capacities) across
// shrink/grow cycles.
func (e *Engine) ensureSlots(n int) {
	e.idOf = growTo(e.idOf, n)
	e.alive = growTo(e.alive, n)
	e.pos = growTo(e.pos, n)
	e.nh = growTo(e.nh, n)
	e.seen = growTo(e.seen, n)
	e.dirtyGen = growTo(e.dirtyGen, n)
	e.visited = growTo(e.visited, n)
	e.memberGen = growTo(e.memberGen, n)
}

// allocSlot assigns a slot to a newly appeared object. The resurrected
// slot may hold stale data from an earlier occupant; every field that
// matters is overwritten here or stamped by the caller.
func (e *Engine) allocSlot(id model.ObjectID, p geom.Point) int32 {
	var s int32
	if k := len(e.free); k > 0 {
		s = e.free[k-1]
		e.free = e.free[:k-1]
	} else {
		s = int32(len(e.idOf))
		e.ensureSlots(len(e.idOf) + 1)
	}
	e.idOf[s] = id
	e.alive[s] = true
	e.pos[s] = p
	e.nh[s] = e.nh[s][:0]
	e.slotOf[id] = s
	return s
}

// index returns the slot-space grid, made on first use.
func (e *Engine) index() *grid.PointIndex {
	if e.idx == nil {
		cell := e.eps
		if cell <= 0 {
			cell = 1
		}
		e.idx = grid.NewPointIndex(nil, cell)
	}
	return e.idx
}

// indexSlots rebuilds the grid over the alive slots.
func (e *Engine) indexSlots() {
	idx := e.index()
	idx.Reset(e.pos)
	for s, alive := range e.alive {
		if !alive {
			idx.Remove(s)
		}
	}
	e.gridOK = true
}

// neighborhood returns the ascending slot list of the points within eps of
// p (self included), appended to dst.
func (e *Engine) neighborhood(p geom.Point, dst []int32) []int32 {
	dst = e.idx.Within32(p, e.eps, dst)
	slices.Sort(dst)
	return dst
}

// recompute rebuilds the neighborhood of the dirty slot s and patches the
// symmetric entries of its clean neighbors: edges only in the old list are
// removed from their other endpoint, edges only in the new list are
// inserted. Dirty endpoints are skipped — they recompute their own lists
// from the same grid.
func (e *Engine) recompute(s int32, g uint64) {
	newNH := e.neighborhood(e.pos[s], e.newNH[:0])
	old := e.nh[s]
	oi, ni := 0, 0
	for oi < len(old) || ni < len(newNH) {
		switch {
		case ni >= len(newNH) || (oi < len(old) && old[oi] < newNH[ni]):
			q := old[oi]
			oi++
			if q != s && e.alive[q] && e.dirtyGen[q] != g {
				e.nh[q] = removeSorted(e.nh[q], s)
			}
		case oi >= len(old) || newNH[ni] < old[oi]:
			q := newNH[ni]
			ni++
			if q != s && e.dirtyGen[q] != g {
				e.nh[q] = insertSorted(e.nh[q], s)
			}
		default:
			oi++
			ni++
		}
	}
	e.nh[s] = append(e.nh[s][:0], newNH...)
	e.newNH = newNH
}

// emit flood-fills the maintained adjacency into maximal clusters: one
// cluster per core component, holding its cores plus every border in a
// core's neighborhood (borders may belong to several clusters). Member lists come out as ascending ids; the
// cluster list is ordered by ascending member list. The lists are built in
// scratch; when they equal the ones handed out last, those are handed out
// again (nothing is allocated), and otherwise they are copied into one
// fresh arena. Either way a returned list is never written afterwards: a
// parallel scan hands them to its consumer long after the engine has moved
// on, and a Monitor keeps them.
func (e *Engine) emit() [][]model.ObjectID {
	e.emitGen++
	eg := e.emitGen
	members, ends := e.members[:0], e.ends[:0]
	for _, s := range e.aliveSlots {
		if len(e.nh[s]) < e.m || e.visited[s] == eg {
			continue
		}
		e.memberTag++
		tag := e.memberTag
		queue := append(e.queue[:0], s)
		e.visited[s] = eg
		for head := 0; head < len(queue); head++ {
			c := queue[head]
			if e.memberGen[c] != tag {
				e.memberGen[c] = tag
				members = append(members, c)
			}
			for _, q := range e.nh[c] {
				if len(e.nh[q]) >= e.m {
					if e.visited[q] != eg {
						e.visited[q] = eg
						queue = append(queue, q)
					}
					continue
				}
				if e.memberGen[q] != tag {
					e.memberGen[q] = tag
					members = append(members, q)
				}
			}
		}
		e.queue = queue
		ends = append(ends, len(members))
	}
	e.members, e.ends = members, ends
	if len(ends) == 0 {
		return nil
	}
	buf := growTo(e.idsBuf, len(members))
	lists := e.lists[:0]
	lo := 0
	for _, hi := range ends {
		ids := buf[lo:hi:hi]
		for i, sl := range members[lo:hi] {
			ids[i] = e.idOf[sl]
		}
		slices.Sort(ids)
		lists = append(lists, ids)
		lo = hi
	}
	slices.SortFunc(lists, slices.Compare[[]model.ObjectID])
	e.idsBuf, e.lists = buf, lists
	if slices.EqualFunc(lists, e.last, slices.Equal[[]model.ObjectID]) {
		return e.last
	}
	arena := make([]model.ObjectID, len(members))
	out := make([][]model.ObjectID, len(lists))
	lo = 0
	for ci, ids := range lists {
		hi := lo + len(ids)
		out[ci] = arena[lo:hi:hi]
		copy(out[ci], ids)
		lo = hi
	}
	e.last = out
	return out
}

// growTo reslices s to length n, preserving hidden elements within
// capacity (their stale contents are guarded by generation stamps or
// overwritten on slot allocation).
func growTo[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// searchInt32 returns the insertion index of v in ascending s and whether
// v is present.
func searchInt32(s []int32, v int32) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo] == v
}

func removeSorted(s []int32, v int32) []int32 {
	i, ok := searchInt32(s, v)
	if !ok {
		return s
	}
	return append(s[:i], s[i+1:]...)
}

func insertSorted(s []int32, v int32) []int32 {
	i, ok := searchInt32(s, v)
	if ok {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
