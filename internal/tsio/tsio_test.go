package tsio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

func sampleDB(t *testing.T) *model.DB {
	t.Helper()
	db := model.NewDB()
	a, err := model.NewTrajectory("truck-1", []model.Sample{
		{T: 0, P: geom.Pt(1.5, -2.25)},
		{T: 3, P: geom.Pt(2, 0)},
		{T: 4, P: geom.Pt(2.125, 0.5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Add(a)
	b, err := model.NewTrajectory("", []model.Sample{{T: 2, P: geom.Pt(0.1, 0.2)}})
	if err != nil {
		t.Fatal(err)
	}
	db.Add(b)
	return db
}

func TestRoundTrip(t *testing.T) {
	db := sampleDB(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("object count: %d vs %d", back.Len(), db.Len())
	}
	for id := 0; id < db.Len(); id++ {
		want, got := db.Traj(id), back.Traj(id)
		if got.Len() != want.Len() {
			t.Fatalf("object %d samples: %d vs %d", id, got.Len(), want.Len())
		}
		for i := range want.Samples {
			if want.Samples[i] != got.Samples[i] {
				t.Errorf("object %d sample %d: %v vs %v", id, i, got.Samples[i], want.Samples[i])
			}
		}
	}
	// The unlabeled object round-trips with the generated label.
	if _, ok := back.ByLabel("o1"); !ok {
		t.Error("generated label o1 missing")
	}
}

func TestReadUnsortedSamples(t *testing.T) {
	in := "obj,t,x,y\na,5,1,1\na,2,0,0\na,9,2,2\n"
	db, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	tr := db.Traj(0)
	if tr.Start() != 2 || tr.End() != 9 || tr.Len() != 3 {
		t.Errorf("trajectory = %+v", tr)
	}
}

func TestReadObjectOrderDeterministic(t *testing.T) {
	in := "obj,t,x,y\nzulu,0,0,0\nalpha,0,1,1\nzulu,1,0,1\n"
	db, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if db.Traj(0).Label != "zulu" || db.Traj(1).Label != "alpha" {
		t.Errorf("first-appearance order broken: %q, %q", db.Traj(0).Label, db.Traj(1).Label)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"bad header", "id,t,x,y\na,0,0,0\n"},
		{"bad tick", "obj,t,x,y\na,zz,0,0\n"},
		{"bad x", "obj,t,x,y\na,0,zz,0\n"},
		{"bad y", "obj,t,x,y\na,0,0,zz\n"},
		{"wrong fields", "obj,t,x,y\na,0,0\n"},
		{"duplicate tick", "obj,t,x,y\na,1,0,0\na,1,5,5\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestReadEmpty(t *testing.T) {
	db, err := ReadCSV(strings.NewReader(""))
	if err != nil || db.Len() != 0 {
		t.Errorf("empty input: %v %v", db, err)
	}
	db, err = ReadCSV(strings.NewReader("obj,t,x,y\n"))
	if err != nil || db.Len() != 0 {
		t.Errorf("header-only input: %v %v", db, err)
	}
}

// Property: random databases survive a write/read round trip bit-exactly
// (float formatting uses shortest-round-trip encoding).
func TestPropRoundTripExact(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for iter := 0; iter < 30; iter++ {
		db := model.NewDB()
		for o := 0; o < 1+r.Intn(6); o++ {
			var samples []model.Sample
			tick := model.Tick(r.Intn(10))
			for i := 0; i < 1+r.Intn(20); i++ {
				samples = append(samples, model.Sample{
					T: tick,
					P: geom.Pt(r.NormFloat64()*1000, r.NormFloat64()*1000),
				})
				tick += model.Tick(1 + r.Intn(4))
			}
			tr, err := model.NewTrajectory("", samples)
			if err != nil {
				t.Fatal(err)
			}
			db.Add(tr)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, db); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < db.Len(); id++ {
			a, b := db.Traj(id), back.Traj(id)
			if a.Len() != b.Len() {
				t.Fatalf("object %d length mismatch", id)
			}
			for i := range a.Samples {
				if a.Samples[i] != b.Samples[i] {
					t.Fatalf("object %d sample %d: %v vs %v", id, i, a.Samples[i], b.Samples[i])
				}
			}
		}
	}
}
