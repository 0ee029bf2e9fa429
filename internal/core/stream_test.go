package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/model"
)

func TestStreamerBasicLifecycle(t *testing.T) {
	s, err := NewStreamer(Params{M: 2, K: 3, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LastTick(); ok {
		t.Error("LastTick before first Advance should be invalid")
	}
	// Two objects together for ticks 0..4, apart at 5.
	for tick := model.Tick(0); tick < 5; tick++ {
		got, err := s.Advance(tick,
			[]model.ObjectID{0, 1},
			[]geom.Point{geom.Pt(float64(tick), 0), geom.Pt(float64(tick), 0.5)})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("tick %d: unexpected emission %v", tick, got)
		}
		if s.Live() == 0 {
			t.Fatalf("tick %d: no live candidates", tick)
		}
	}
	got, err := s.Advance(5,
		[]model.ObjectID{0, 1},
		[]geom.Point{geom.Pt(5, 0), geom.Pt(5, 50)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Equal(Convoy{Objects: ids(0, 1), Start: 0, End: 4}) {
		t.Fatalf("emission = %v, want ⟨o0,o1,[0,4]⟩", got)
	}
	if rest := s.Close(); len(rest) != 0 {
		t.Errorf("Close emitted %v", rest)
	}
	if _, err := s.Advance(6, nil, nil); err == nil {
		t.Error("Advance after Close should fail")
	}
	if again := s.Close(); again != nil {
		t.Errorf("second Close emitted %v", again)
	}
}

func TestStreamerFlushOnClose(t *testing.T) {
	s, _ := NewStreamer(Params{M: 2, K: 2, Eps: 1})
	for tick := model.Tick(10); tick < 13; tick++ {
		if _, err := s.Advance(tick,
			[]model.ObjectID{3, 7},
			[]geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Close()
	if len(got) != 1 || !got[0].Equal(Convoy{Objects: ids(3, 7), Start: 10, End: 12}) {
		t.Fatalf("Close = %v", got)
	}
}

func TestStreamerTickGapBreaksConvoy(t *testing.T) {
	s, _ := NewStreamer(Params{M: 2, K: 2, Eps: 1})
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0)}
	objs := []model.ObjectID{0, 1}
	if _, err := s.Advance(0, objs, pts); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance(1, objs, pts); err != nil {
		t.Fatal(err)
	}
	// Jump to tick 5: the [0,1] convoy must be emitted by the gap.
	got, err := s.Advance(5, objs, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Start != 0 || got[0].End != 1 {
		t.Fatalf("gap emission = %v", got)
	}
	// And the post-gap run starts fresh.
	if _, err := s.Advance(6, objs, pts); err != nil {
		t.Fatal(err)
	}
	rest := s.Close()
	if len(rest) != 1 || rest[0].Start != 5 || rest[0].End != 6 {
		t.Fatalf("post-gap convoy = %v", rest)
	}
}

func TestStreamerErrors(t *testing.T) {
	if _, err := NewStreamer(Params{M: 0, K: 1, Eps: 1}); err == nil {
		t.Error("invalid params accepted")
	}
	s, _ := NewStreamer(Params{M: 2, K: 2, Eps: 1})
	if _, err := s.Advance(0, []model.ObjectID{1}, nil); err == nil {
		t.Error("mismatched slices accepted")
	}
	if _, err := s.Advance(3, nil, nil); err != nil {
		t.Errorf("empty snapshot rejected: %v", err)
	}
	if _, err := s.Advance(3, nil, nil); err == nil {
		t.Error("non-advancing tick accepted")
	}
	if _, err := s.Advance(2, nil, nil); err == nil {
		t.Error("backwards tick accepted")
	}
}

// Regression: Advance used to accept a snapshot listing the same object
// twice; the repeated point clustered with itself and corrupted candidate
// sets (convoys like ⟨o1,o1,o2⟩). Duplicates are now rejected before any
// state changes — exactly like serve's feed handler.
func TestStreamerRejectsDuplicateIDs(t *testing.T) {
	s, _ := NewStreamer(Params{M: 2, K: 1, Eps: 1})
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.1, 0), geom.Pt(0.2, 0)}

	// Sorted duplicates (the ascending fast path).
	if _, err := s.Advance(0, []model.ObjectID{1, 1, 2}, pts); err == nil {
		t.Fatal("sorted duplicate ids accepted")
	}
	// Unsorted duplicates (the set fallback).
	if _, err := s.Advance(0, []model.ObjectID{2, 1, 2}, pts); err == nil {
		t.Fatal("unsorted duplicate ids accepted")
	}
	// The rejected snapshots must not have advanced the stream: tick 0 is
	// still available and a clean snapshot forms the convoy.
	if _, ok := s.LastTick(); ok {
		t.Fatal("rejected Advance moved the tick cursor")
	}
	if _, err := s.Advance(0, []model.ObjectID{1, 2, 3}, pts); err != nil {
		t.Fatalf("clean snapshot after rejection: %v", err)
	}
	got := s.Close()
	if len(got) != 1 || !equalSorted(got[0].Objects, ids(1, 2, 3)) {
		t.Fatalf("Close = %v", got)
	}
}

func TestStreamerUnsortedIDs(t *testing.T) {
	// Pushed IDs need not be sorted; clusters still come out canonical.
	s, _ := NewStreamer(Params{M: 2, K: 1, Eps: 1})
	if _, err := s.Advance(0,
		[]model.ObjectID{9, 2},
		[]geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0)}); err != nil {
		t.Fatal(err)
	}
	got := s.Close()
	if len(got) != 1 || !equalSorted(got[0].Objects, ids(2, 9)) {
		t.Fatalf("Close = %v", got)
	}
}

// The equivalence contract: replaying any database through the Streamer and
// canonicalizing equals the batch CMC answer.
func TestPropStreamEqualsCMC(t *testing.T) {
	r := rand.New(rand.NewSource(271))
	for iter := 0; iter < 25; iter++ {
		db := randomDB(r, 3+r.Intn(5), 8+r.Intn(12))
		p := Params{
			M:   1 + r.Intn(3),
			K:   int64(1 + r.Intn(4)),
			Eps: 0.5 + r.Float64()*2.5,
		}
		want, err := CMC(db, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := StreamDB(db, p)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("iter %d (m=%d k=%d e=%.3f):\nstream = %v\nbatch  = %v",
				iter, p.M, p.K, p.Eps, got, want)
		}
	}
}

// A database whose last tick is model.MaxTick must not wrap the tick walk:
// `for t := lo; t <= hi; t++` never terminates there (t++ overflows back
// below hi), which used to hang MC2 and ReplayTicks (StreamDB bailed out
// only because its Streamer rejects the wrapped tick). Every walker goes
// through model.TickSpan now; this pins that they terminate on the 3-tick domain
// [MaxTick-2, MaxTick] and that CMC ≡ StreamDB on it.
func TestTickWalkTerminatesAtMaxTick(t *testing.T) {
	db := buildDB(t, model.MaxTick-2,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)},
		[]geom.Point{geom.Pt(0, 0.5), geom.Pt(1, 0.5), geom.Pt(2, 0.5)},
		[]geom.Point{geom.Pt(0, 50), geom.Pt(1, 50), geom.Pt(2, 50)})
	p := Params{M: 2, K: 2, Eps: 1}
	type answers struct{ cmc, stream, mc2 Result }
	done := make(chan answers, 1) // buffered: a late finisher must not block after the timeout
	go func() {
		var a answers
		var err error
		if a.cmc, err = CMC(db, p); err != nil {
			t.Error(err)
		}
		if a.stream, err = StreamDB(db, p); err != nil {
			t.Error(err)
		}
		if a.mc2, err = MC2(db, p, 0.5); err != nil {
			t.Error(err)
		}
		done <- a
	}()
	select {
	case a := <-done:
		want := Result{{Objects: ids(0, 1), Start: model.MaxTick - 2, End: model.MaxTick}}
		if !a.cmc.Equal(want) {
			t.Fatalf("CMC = %v, want %v", a.cmc, want)
		}
		if !a.stream.Equal(a.cmc) {
			t.Fatalf("StreamDB = %v, CMC = %v", a.stream, a.cmc)
		}
		if len(a.mc2) != 1 || !equalSorted(a.mc2[0].Objects, ids(0, 1)) || a.mc2[0].End != model.MaxTick {
			t.Fatalf("MC2 = %v, want the one ⟨0,1⟩ chain ending at MaxTick", a.mc2)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a tick walk over [MaxTick-2, MaxTick] did not terminate")
	}
}
