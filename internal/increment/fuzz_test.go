package increment

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// FuzzIncrementalTicks decodes the fuzz input into a tick-diff script —
// add / remove / nudge / teleport operations over a small id space — and
// asserts after every tick that the Engine's clusters equal the oracle's
// (internal/oracle.Clusters). The id space is kept small (64 ids) so the
// diff machinery sees heavy slot reuse, and the world is byte-scaled
// (coordinates 0..255 at ε=8) so clusters actually form and dissolve. The
// high bit of a tick's op-count byte walks a crowd of allPairsMax−4 further
// objects in or out at once: the population then jumps across allPairsMax
// in one tick (a full pass on the other side of the constant), and while
// the crowd is in, the scripted objects move it one at a time through
// allPairsMax−1, allPairsMax and allPairsMax+1 on incremental ticks.
// The engine hands a repeated tick's lists out again, so nothing may write
// a list once returned: after every tick, every list returned so far must
// still hold the ids it was returned with.
func FuzzIncrementalTicks(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 10, 10, 0, 1, 12, 10, 0, 2, 14, 10})
	f.Add([]byte{2, 2, 0, 1, 1, 1, 1, 2, 9, 9, 200, 200, 3, 3, 5})
	// Three objects; the crowd walks in (max−1, all-pairs); two more appear
	// one by one (max, max+1: incremental, on the grid); a nudge; the crowd
	// walks out and back in at exactly max (all-pairs), out, and in at max+1
	// (full pass on the grid); two objects leave one by one; out again.
	f.Add([]byte{
		3, 0, 0, 10, 10, 0, 1, 12, 10, 0, 2, 14, 10,
		0x80,
		1, 0, 3, 16, 10,
		1, 0, 4, 18, 10,
		1, 2, 0, 9,
		0x81, 1, 4,
		0x80,
		0x81, 0, 4, 18, 10,
		0x80,
		1, 1, 0,
		1, 1, 1,
		0x80,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		const eps, m = 8.0, 2
		const crowd = allPairsMax - 4
		e := New(eps, m, DefaultChurnThreshold)
		pos := map[model.ObjectID]geom.Point{}
		crowdIn := false
		type handedOut struct{ got, ids [][]model.ObjectID }
		var returned []handedOut
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		for tick := 0; tick < 64; tick++ {
			nops, ok := next()
			if !ok {
				break
			}
			if nops&0x80 != 0 {
				crowdIn = !crowdIn
				for j := 0; j < crowd; j++ {
					if id := model.ObjectID(64 + j); crowdIn {
						// Rows 10 apart, neighbors in a row 13, 13 or 4
						// apart: some pairs within ε, most not.
						pos[id] = geom.Pt(float64(10*(j%16)+3*(j%3)), float64(60+10*(j/16)))
					} else {
						delete(pos, id)
					}
				}
			}
			for op := 0; op < int(nops%8); op++ {
				kind, ok := next()
				if !ok {
					break
				}
				idb, _ := next()
				id := model.ObjectID(idb % 64)
				switch kind % 4 {
				case 0: // add / teleport to absolute byte coordinates
					xb, _ := next()
					yb, _ := next()
					pos[id] = geom.Pt(float64(xb), float64(yb))
				case 1: // remove
					delete(pos, id)
				case 2: // nudge: small sub-ε displacement
					db, _ := next()
					if p, live := pos[id]; live {
						pos[id] = geom.Pt(p.X+float64(db%7)-3, p.Y+float64(db/32)-3)
					}
				case 3: // clone-adjacent spawn: densify around an existing object
					if p, live := pos[id]; live {
						pos[model.ObjectID((int(id)+1)%64)] = geom.Pt(p.X+1, p.Y)
					}
				}
			}
			ids := make([]model.ObjectID, 0, len(pos))
			for id := range pos {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			pts := make([]geom.Point, len(ids))
			for i, id := range ids {
				pts[i] = pos[id]
			}
			got, pass := e.Tick(ids, pts)
			want := reference(ids, pts, eps, m)
			if !reflect.DeepEqual(got, want) { // both ordered by ascending member list
				t.Fatalf("tick %d (full=%v): incremental diverged from reference\n got %v\nwant %v",
					tick, pass.Full, got, want)
			}
			returned = append(returned, handedOut{got, want})
			for i, r := range returned {
				if !reflect.DeepEqual(r.got, r.ids) {
					t.Fatalf("tick %d: the lists returned at tick %d changed to %v, were %v", tick, i, r.got, r.ids)
				}
			}
		}
	})
}
