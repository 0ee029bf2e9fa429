package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/tsio"
	"repro/internal/wire"
)

// Inputs. Every workload's data comes from internal/datagen, seeded by
// -seed; the program under test only ever sees the generated bytes.

// pinnedSeed and pinnedSeconds are the run whose input digests are pinned
// below: the default seed at the run length BENCHMARK.json declares.
const (
	pinnedSeed    = 1
	pinnedSeconds = 12
)

// pinnedDigests are the SHA-256 of each workload's generated input (CTB
// bytes, or the encoded tick stream) at the pinned run. A different digest
// there means internal/datagen drifted and every number measured before is
// about other data. Other seeds and run lengths are unpinned; their
// digests are printed and recorded.
var pinnedDigests = map[string]string{
	"truck-cmc":       "4c6606f335b3d650ff0623e432d014577cbb5a059c0f82e41a899d238eb3cbb5",
	"cattle-cuts":     "06e69b271a7ccce0e8f312da91c2ba55e0d107b0a13d56d93de2e983a8072364",
	"feed-commute":    "0d7dd06765d83e77929c2ec9d8be3f9805ace6b5d79b1b463f813489335e2894",
	"history-commute": "3057c558e942a7be4173eddd3a5e0e43e9798e766f1e05ea4d147e600173deae",
	"sharded-truck":   "4c6606f335b3d650ff0623e432d014577cbb5a059c0f82e41a899d238eb3cbb5",
}

// generate builds a datagen profile's database for a run seed. The
// planted-group schedule — how many groups travel together, how large,
// over which ticks — is part of the workload's definition and is always
// the pinned seed's; the run seed drives every trajectory (lifespans,
// routes, noise). Ten seeds therefore give ten different databases of one
// shape, not ten different amounts of convoy structure to mine. At the
// pinned seed this is exactly mk(scale, seed+offset).Generate().
func generate(mk func(float64, int64) datagen.Profile, scale float64, seed, offset int64) *model.DB {
	p := mk(scale, pinnedSeed+offset)
	p.Scenario.Seed = seed + offset
	return p.Generate()
}

func digestHex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checkPin records the input digest and, on the pinned run, fails on
// drift.
func checkPin(rec *runRecord, digest string) error {
	rec.Digests["input"] = digest
	if rec.Seed != pinnedSeed || rec.Seconds != pinnedSeconds {
		return nil
	}
	if want := pinnedDigests[rec.Workload]; want != "" && want != digest {
		return fmt.Errorf("datagen drift: %s input at -seed %d has digest %s, pinned %s — internal/datagen no longer generates the data this ladder's history was measured on",
			rec.Workload, rec.Seed, digest, want)
	}
	return nil
}

// ctbBytes encodes db as the CTB file the query workloads reference.
func ctbBytes(db *model.DB) ([]byte, error) {
	var buf bytes.Buffer
	if err := tsio.WriteBinary(&buf, db); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// tickStream is a database replayed as per-tick POST bodies: tick i of the
// stream is body(i), a {"ticks":[{t, positions}]} document holding every
// object alive at that tick. All bodies share one backing array so tens
// of megabytes of request bytes are a single pointer-free allocation the
// collector never scans.
type tickStream struct {
	arena     []byte
	off       []int        // body i is arena[off[i]:off[i+1]]
	T         []model.Tick // tick of body i
	Positions []int        // positions in body i
}

func (s *tickStream) len() int          { return len(s.T) }
func (s *tickStream) body(i int) []byte { return s.arena[s.off[i]:s.off[i+1]] }

// positions sums the positions of bodies [lo, hi).
func (s *tickStream) positions(lo, hi int) int64 {
	var n int64
	for _, p := range s.Positions[lo:hi] {
		n += int64(p)
	}
	return n
}

// batch joins bodies [lo, hi) into one multi-tick request (set-up uses it
// to ingest history in few round trips).
func (s *tickStream) batch(lo, hi int) []byte {
	out := []byte(`{"ticks":[`)
	for i := lo; i < hi; i++ {
		if i > lo {
			out = append(out, ',')
		}
		b := s.body(i)
		out = append(out, b[len(`{"ticks":[`):len(b)-len(`]}`)]...)
	}
	return append(out, `]}`...)
}

// encodeTicks replays db over the inclusive tick range [from, to] into a
// tickStream. Floats are written in their shortest round-trip form, so the
// server decodes exactly the database's coordinates.
func encodeTicks(db *model.DB, from, to model.Tick) *tickStream {
	labels := wire.DBLabels(db)
	quoted := make([][]byte, db.Len())
	for id := range quoted {
		quoted[id] = mustJSON(labels(id))
	}
	s := &tickStream{off: []int{0}}
	for t := from; t <= to; t++ {
		ids, pts := db.SnapshotAt(t)
		s.arena = append(s.arena, `{"ticks":[{"t":`...)
		s.arena = strconv.AppendInt(s.arena, int64(t), 10)
		s.arena = append(s.arena, `,"positions":[`...)
		for i, id := range ids {
			if i > 0 {
				s.arena = append(s.arena, ',')
			}
			s.arena = append(s.arena, `{"id":`...)
			s.arena = append(s.arena, quoted[id]...)
			s.arena = append(s.arena, `,"x":`...)
			s.arena = strconv.AppendFloat(s.arena, pts[i].X, 'g', -1, 64)
			s.arena = append(s.arena, `,"y":`...)
			s.arena = strconv.AppendFloat(s.arena, pts[i].Y, 'g', -1, 64)
			s.arena = append(s.arena, '}')
		}
		s.arena = append(s.arena, `]}]}`...)
		s.off = append(s.off, len(s.arena))
		s.T = append(s.T, t)
		s.Positions = append(s.Positions, len(ids))
	}
	return s
}

// snapshots materialises the positions of every tick of db in [from, to],
// as the spatial layers see them.
func snapshots(db *model.DB, from, to model.Tick) [][]geom.Point {
	out := make([][]geom.Point, 0, int(to-from)+1)
	for t := from; t <= to; t++ {
		_, pts := db.SnapshotAt(t)
		out = append(out, pts)
	}
	return out
}

// stableRange returns the tick range of a Commute database in which the
// whole population is alive (datagen gives every object a lifespan of at
// least 80 % of the domain), so ticks carry ≈ 300 positions from the
// first one posted.
func stableRange(db *model.DB) (from, to model.Tick) {
	lo, hi, _ := db.TimeRange()
	span := hi - lo + 1
	return lo + span/5, hi - span/5
}

// labelIDs inverts a database's label table.
func labelIDs(db *model.DB) map[string]model.ObjectID {
	labels := wire.DBLabels(db)
	out := make(map[string]model.ObjectID, db.Len())
	for id := 0; id < db.Len(); id++ {
		out[labels(id)] = id
	}
	return out
}

// canonEvents canonicalises convoys a feed emitted (closed events plus
// those drained at deletion) the way the batch algorithms canonicalise
// their own output — dedup, drop dominated — and renders them for
// comparison with a reference over db.
func canonEvents(db *model.DB, events []wire.ConvoyJSON) ([]string, error) {
	ids := labelIDs(db)
	cs := make([]core.Convoy, len(events))
	for i, e := range events {
		objs := make([]model.ObjectID, len(e.Objects))
		for j, l := range e.Objects {
			id, ok := ids[l]
			if !ok {
				return nil, fmt.Errorf("feed emitted unknown object %q", l)
			}
			objs[j] = id
		}
		sort.Ints(objs)
		cs[i] = core.Convoy{Objects: objs, Start: e.Start, End: e.End}
	}
	labels := wire.DBLabels(db)
	res := core.Canonicalize(cs)
	out := make([]wire.ConvoyJSON, len(res))
	for i, c := range res {
		out[i] = wire.ConvoyToJSON(c, labels)
	}
	return canon(out), nil
}
