package convoys_test

import (
	"bytes"
	"context"
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

// A database replayed through a Streamer answers what the batch CMC query
// answers.
func TestFacadeStreamerMatchesBatch(t *testing.T) {
	db := smallDB(t)
	want, err := smallQuery(convoys.WithCMC()).Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	s, err := convoys.NewStreamer(convoys.Params{M: 2, K: 5, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	var all []convoys.Convoy
	err = convoys.ReplayTicks(db, func(tick convoys.Tick, ids []convoys.ObjectID, pts []convoys.Point) error {
		got, err := s.Advance(tick, ids, pts)
		all = append(all, got...)
		return err
	})
	if err != nil {
		t.Fatal(err)
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
