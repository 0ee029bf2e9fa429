package core

import (
	"context"
	"errors"
	"math"
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

// streamDB replays a stored database through a Streamer tick by tick
// (interpolating gaps exactly like CMC) and returns the canonicalized
// emissions — the executable statement of the Streamer contract.
func streamDB(db *model.DB, p Params) (Result, error) {
	s, err := NewStreamer(p)
	if err != nil {
		return nil, err
	}
	var all []Convoy
	err = ReplayTicks(db, func(t model.Tick, ids []model.ObjectID, pts []geom.Point) error {
		got, err := s.Advance(t, ids, pts)
		all = append(all, got...)
		return err
	})
	if err != nil {
		return nil, err
	}
	all = append(all, s.Close()...)
	return Canonicalize(all), nil
}

// A database whose last tick is model.MaxTick must not wrap the tick walk:
// `for t := lo; t <= hi; t++` never terminates there (t++ overflows back
// below hi), which used to hang MC2 and ReplayTicks (a Streamer replay bailed
// out only because it rejects the wrapped tick). Every walker goes
// through model.TickSpan now; this pins that they terminate on the 3-tick domain
// [MaxTick-2, MaxTick] and that CMC ≡ the Streamer replay on it.
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
		if a.cmc, err = runCMC(db, p); err != nil {
			t.Error(err)
		}
		if a.stream, err = streamDB(db, p); err != nil {
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
			t.Fatalf("streamDB = %v, CMC = %v", a.stream, a.cmc)
		}
		if len(a.mc2) != 1 || !equalSorted(a.mc2[0].Objects, ids(0, 1)) || a.mc2[0].End != model.MaxTick {
			t.Fatalf("MC2 = %v, want the one ⟨0,1⟩ chain ending at MaxTick", a.mc2)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a tick walk over [MaxTick-2, MaxTick] did not terminate")
	}
}

// pairAndStray is TestTickWalkTerminatesAtMaxTick's database at another
// start tick: objects 0 and 1 travel together for three ticks, 2 far away.
func pairAndStray(t *testing.T, start model.Tick) *model.DB {
	return buildDB(t, start,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)},
		[]geom.Point{geom.Pt(0, 0.5), geom.Pt(1, 0.5), geom.Pt(2, 0.5)},
		[]geom.Point{geom.Pt(0, 50), geom.Pt(1, 50), geom.Pt(2, 50)})
}

// The CuTS family — the default algorithm — over the same [MaxTick-2,
// MaxTick] domain: the filter's λ-window walk stepped `w0 += λ`, which
// wraps past MaxTick, and it appended windows forever without looking at
// ctx (a remote hang: three CSV lines pinned a convoyd worker slot past
// every timeout). The walk is indexed over model.TickSpan now, and because
// simplified segments carry float64 times, which cannot tell ticks beyond
// ±2^53 apart, a CuTS query over such a domain is refused with
// ErrTickDomain instead of mined on the wrong instants. CMC — serial,
// parallel and partitioned — keeps working there and still equals
// the Streamer replay.
func TestCuTSRefusesTicksBeyondFloat64(t *testing.T) {
	db := pairAndStray(t, model.MaxTick-2)
	p := Params{M: 2, K: 2, Eps: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()

	done := make(chan error, 1) // buffered: a late finisher must not block after the timeout
	go func() {
		_, err := NewQuery(WithParams(p)).Run(ctx, db)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTickDomain) {
			t.Fatalf("default algorithm over [MaxTick-2, MaxTick]: err = %v, want ErrTickDomain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the default algorithm over [MaxTick-2, MaxTick] did not return (and ignored its 3 s context)")
	}
	for _, v := range []Variant{VariantCuTS, VariantCuTSPlus, VariantCuTSStar} {
		if _, err := NewQuery(WithParams(p), WithVariant(v)).Run(ctx, db); !errors.Is(err, ErrTickDomain) {
			t.Errorf("%v: err = %v, want ErrTickDomain", v, err)
		}
	}

	want, err := streamDB(db, p)
	if err != nil || len(want) != 1 {
		t.Fatalf("streamDB = %v, %v; want the one ⟨0,1⟩ convoy", want, err)
	}
	for _, opts := range [][]Option{nil, {WithWorkers(4)}, {WithPartitions(2)}, {WithPartitions(3), WithWorkers(2)}} {
		got, err := NewQuery(append([]Option{WithParams(p), WithCMC()}, opts...)...).Run(ctx, db)
		if err != nil || !got.Equal(want) {
			t.Errorf("CMC with %d extra option(s) = %v, %v; want %v", len(opts), got, err, want)
		}
	}
}

// Every window walk is indexed, so neither a domain that ends at MaxTick
// nor a λ (or partition stride) near MaxInt64 can wrap it: one partition
// covers the domain, and the answer is the plain one.
func TestWindowWalksDoNotWrap(t *testing.T) {
	if got := PartitionWindows(model.MaxTick-3, model.MaxTick, 2, 2); len(got) != 2 ||
		got[0] != (Window{model.MaxTick - 3, model.MaxTick - 1}) || got[1] != (Window{model.MaxTick - 1, model.MaxTick}) {
		t.Errorf("PartitionWindows over [MaxTick-3, MaxTick] = %v", got)
	}
	if n := lambdaPartitions(model.MaxTick-2, model.MaxTick, 2); n != 2 {
		t.Errorf("lambdaPartitions over [MaxTick-2, MaxTick], λ=2: %d, want 2", n)
	}

	// The largest domain CuTS accepts, with the largest λ a caller can ask for.
	db := pairAndStray(t, maxExactTick-2)
	p := Params{M: 2, K: 2, Eps: 1}
	want, err := runCMC(db, p)
	if err != nil || len(want) != 1 {
		t.Fatalf("CMC = %v, %v", want, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	for _, lambda := range []int64{0, 2, math.MaxInt64} {
		var st Stats
		got, err := NewQuery(WithParams(p), WithLambda(lambda), WithStats(&st)).Run(ctx, db)
		if err != nil || !got.Equal(want) {
			t.Errorf("CuTS* λ=%d over [2^53-2, 2^53] = %v, %v; want %v", lambda, got, err, want)
		}
		if lambda == math.MaxInt64 && st.NumPartitions != 1 {
			t.Errorf("λ=MaxInt64: %d partitions, want 1", st.NumPartitions)
		}
	}
}
