package convoys_test

import (
	"bytes"
	"testing"

	convoys "repro"
)

func TestFacadeStreamer(t *testing.T) {
	s, err := convoys.NewStreamer(convoys.Params{M: 2, K: 3, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	for tick := convoys.Tick(0); tick < 4; tick++ {
		emitted, err := s.Advance(tick,
			[]convoys.ObjectID{0, 1},
			[]convoys.Point{convoys.Pt(float64(tick), 0), convoys.Pt(float64(tick), 0.5)})
		if err != nil {
			t.Fatal(err)
		}
		if len(emitted) != 0 {
			t.Fatalf("premature emission %v", emitted)
		}
	}
	final := s.Close()
	if len(final) != 1 || final[0].Lifetime() != 4 {
		t.Fatalf("Close = %v", final)
	}
}

func TestFacadeStreamerMatchesBatch(t *testing.T) {
	db := smallDB(t)
	p := convoys.Params{M: 2, K: 5, Eps: 1}
	want, err := convoys.CMC(db, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := convoys.NewStreamer(p)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := db.TimeRange()
	var all []convoys.Convoy
	for tick := lo; tick <= hi; tick++ {
		ids, pts := db.SnapshotAt(tick)
		got, err := s.Advance(tick, ids, pts)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, got...)
	}
	all = append(all, s.Close()...)
	if got := convoys.Canonicalize(all); !got.Equal(want) {
		t.Errorf("stream = %v, batch = %v", got, want)
	}
}

func TestFacadeBinaryRoundTrip(t *testing.T) {
	db := smallDB(t)
	var buf bytes.Buffer
	if err := convoys.WriteBinary(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := convoys.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("binary round trip lost objects: %d vs %d", back.Len(), db.Len())
	}
	for id := 0; id < db.Len(); id++ {
		a, b := db.Traj(id), back.Traj(id)
		for i := range a.Samples {
			if a.Samples[i] != b.Samples[i] {
				t.Fatalf("sample changed in round trip")
			}
		}
	}
}

func TestFacadeBinaryFiles(t *testing.T) {
	dir := t.TempDir()
	db := smallDB(t)
	path := dir + "/x.ctb"
	if err := convoys.SaveBinary(path, db); err != nil {
		t.Fatal(err)
	}
	back, err := convoys.LoadBinary(path)
	if err != nil || back.Len() != db.Len() {
		t.Fatalf("LoadBinary: %v %v", back, err)
	}
}

// convoys.Simplify of a trajectory without samples returns an empty
// simplified trajectory; it used to index its first sample and panic.
func TestFacadeSimplifyEmptyTrajectory(t *testing.T) {
	st := convoys.Simplify(&convoys.Trajectory{Label: "x"}, 1, convoys.DP)
	if st.Len() != 0 || len(st.Segments) != 0 || st.Tolerance != 0 {
		t.Errorf("empty trajectory simplified to %+v", st)
	}
}
