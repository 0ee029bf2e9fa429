package tsio

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// Fuzz targets for the two ingestion surfaces: whatever the bytes, the
// readers must either return a database that downstream code can trust
// (finite coordinates, strictly increasing ticks, non-empty trajectories)
// or fail with an error — never panic. The seed corpus bakes in the two
// historical corruption vectors: NaN/Inf coordinates (which used to reach
// the grid index and panic it) and duplicate samples.

func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("obj,t,x,y\n"))
	f.Add([]byte("obj,t,x,y\na,0,1,2\na,1,2,3\nb,0,1,2\n"))
	f.Add([]byte("obj,t,x,y\na,0,nan,0\n"))
	f.Add([]byte("obj,t,x,y\na,0,NaN,NaN\n"))
	f.Add([]byte("obj,t,x,y\na,0,+Inf,0\n"))
	f.Add([]byte("obj,t,x,y\na,0,0,-Infinity\n"))
	f.Add([]byte("obj,t,x,y\na,0,1e999,0\n"))
	f.Add([]byte("obj,t,x,y\na,0,1,1\na,0,2,2\n")) // duplicate tick
	f.Add([]byte("obj,t,x,y\na,9223372036854775807,1,1\n"))
	f.Add([]byte("not,a,header\n"))
	f.Add([]byte("obj,t,x,y\n\"unterminated"))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkDBInvariants(t, db)
	})
}

func FuzzReadEdgeCSV(f *testing.F) {
	f.Add([]byte("a,b,t,w\n"))
	f.Add([]byte("a,b,t,w\nx,y,0,1\ny,z,0,2.5\nx,y,1,0.25\n"))
	f.Add([]byte("a,b,t,w\nx,y,0,nan\n"))
	f.Add([]byte("a,b,t,w\nx,y,0,+Inf\n"))
	f.Add([]byte("a,b,t,w\nx,y,0,1e999\n"))
	f.Add([]byte("a,b,t,w\nx,y,0,-1\n")) // negative weight: reader keeps, Log rejects
	f.Add([]byte("a,b,t,w\nx,x,0,1\n"))  // self loop: reader keeps, Log rejects
	f.Add([]byte("a,b,t,w\nx,y,9223372036854775807,1\n"))
	f.Add([]byte("obj,t,x,y\n")) // trajectory header, not an edge header
	f.Add([]byte("a,b,t,w\n\"unterminated"))
	f.Fuzz(func(t *testing.T, data []byte) {
		edges, err := ReadEdgeCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, e := range edges {
			if !finite(e.W) {
				t.Fatalf("edge %d: non-finite weight %v accepted", i, e.W)
			}
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	// A valid stream as the base seed…
	db := model.NewDB()
	tr, err := model.NewTrajectory("a", []model.Sample{
		{T: 0, P: geom.Pt(1, 2)},
		{T: 3, P: geom.Pt(4, 5)},
	})
	if err != nil {
		f.Fatal(err)
	}
	db.Add(tr)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, db); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// …plus the corruption vectors: truncations, bad magic, NaN payloads,
	// and implausible counts.
	f.Add(buf.Bytes()[:len(buf.Bytes())-3])
	f.Add([]byte("CTB1"))
	f.Add([]byte("CTB9\x01"))
	f.Add(append(append([]byte(nil), "CTB1\x01\x01a\x01\x00"...),
		0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0)) // x = NaN
	f.Add([]byte("CTB1\xff\xff\xff\xff\xff\xff\xff\xff\x7f")) // huge object count
	for _, tc := range oversizedCounts {
		f.Add([]byte(tc.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkDBInvariants(t, db)
	})
}

// checkDBInvariants asserts what every accepted database must satisfy.
func checkDBInvariants(t *testing.T, db *model.DB) {
	t.Helper()
	for _, tr := range db.Trajectories() {
		if tr.Len() == 0 {
			t.Fatalf("object %d: empty trajectory accepted", tr.ID)
		}
		for i, s := range tr.Samples {
			if !finite(s.P.X) || !finite(s.P.Y) {
				t.Fatalf("object %d sample %d: non-finite %v accepted", tr.ID, i, s.P)
			}
			if i > 0 && s.T <= tr.Samples[i-1].T {
				t.Fatalf("object %d: ticks not strictly increasing", tr.ID)
			}
		}
	}
}

// Regression: "nan"/"inf" parse as valid floats, so a crafted CSV used to
// load and later panic the grid index inside a convoyd query.
func TestReadCSVRejectsNonFinite(t *testing.T) {
	for _, bad := range []string{"nan", "NaN", "+inf", "-inf", "Inf", "Infinity", "1e999"} {
		csv := "obj,t,x,y\na,0," + bad + ",1\n"
		if _, err := ReadCSV(strings.NewReader(csv)); err == nil {
			t.Errorf("x=%s accepted", bad)
		}
		csv = "obj,t,x,y\na,0,1," + bad + "\n"
		if _, err := ReadCSV(strings.NewReader(csv)); err == nil {
			t.Errorf("y=%s accepted", bad)
		}
	}
}

// Regression: the binary reader round-trips raw IEEE bits, so NaN/Inf
// payloads used to pass straight through into the database.
func TestBinaryRejectsNonFinite(t *testing.T) {
	for _, p := range []geom.Point{
		geom.Pt(math.NaN(), 0),
		geom.Pt(0, math.NaN()),
		geom.Pt(math.Inf(1), 0),
		geom.Pt(0, math.Inf(-1)),
	} {
		// Built by hand: NewTrajectory refuses the sample the writer must
		// still encode, so the reader's own check is what is under test.
		db := model.NewDB()
		db.Add(&model.Trajectory{Label: "bad", Samples: []model.Sample{{T: 0, P: p}}})
		var buf bytes.Buffer
		if err := WriteBinary(&buf, db); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBinary(&buf); err == nil {
			t.Errorf("non-finite %v accepted", p)
		}
	}
}
