package model

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func mustTraj(t *testing.T, label string, samples ...Sample) *Trajectory {
	t.Helper()
	tr, err := NewTrajectory(label, samples)
	if err != nil {
		t.Fatalf("NewTrajectory(%q): %v", label, err)
	}
	return tr
}

func s(t Tick, x, y float64) Sample { return Sample{T: t, P: geom.Pt(x, y)} }

func TestNewTrajectoryValidation(t *testing.T) {
	if _, err := NewTrajectory("empty", nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty: err = %v, want ErrEmpty", err)
	}
	if _, err := NewTrajectory("dup", []Sample{s(1, 0, 0), s(1, 1, 1)}); !errors.Is(err, ErrUnsorted) {
		t.Errorf("duplicate tick: err = %v, want ErrUnsorted", err)
	}
	if _, err := NewTrajectory("desc", []Sample{s(2, 0, 0), s(1, 1, 1)}); !errors.Is(err, ErrUnsorted) {
		t.Errorf("descending: err = %v, want ErrUnsorted", err)
	}
	if _, err := NewTrajectory("ok", []Sample{s(1, 0, 0), s(5, 1, 1)}); err != nil {
		t.Errorf("valid: err = %v", err)
	}
}

// A non-finite coordinate is refused at construction, like every other
// entry into a database refuses it. o0 and o1 are the reproducer: over them
// CMC reports ⟨o0,o1,[3,7]⟩ under m = 2, k = 3, e = 1, while CuTS*, whose
// filter bounds cannot hold over a NaN, reports nothing.
func TestNewTrajectoryRejectsNonFinite(t *testing.T) {
	nan := math.NaN()
	o0 := []Sample{s(1, nan, 0), s(3, 3, 0), s(4, 4, 0), s(7, 7, 0)}
	var o1 []Sample
	for tick := Tick(0); tick <= 7; tick++ {
		x := float64(tick)
		if tick == 2 {
			x = nan
		}
		o1 = append(o1, s(tick, x, 0.5))
	}
	for name, samples := range map[string][]Sample{
		"o0":   o0,
		"o1":   o1,
		"+Inf": {s(0, 0, 0), s(1, math.Inf(1), 0)},
		"-Inf": {s(0, 0, math.Inf(-1))},
	} {
		if _, err := NewTrajectory(name, samples); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: err = %v, want ErrNonFinite", name, err)
		}
	}
}

func TestTrajectoryAccessors(t *testing.T) {
	tr := mustTraj(t, "o1", s(2, 0, 0), s(4, 4, 0), s(8, 4, 8))
	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Start() != 2 || tr.End() != 8 {
		t.Errorf("Start/End = %d/%d", tr.Start(), tr.End())
	}
	if tr.Duration() != 7 {
		t.Errorf("Duration = %d", tr.Duration())
	}
	if !tr.Covers(2) || !tr.Covers(5) || !tr.Covers(8) || tr.Covers(1) || tr.Covers(9) {
		t.Error("Covers misbehaves")
	}
	if p, ok := tr.At(4); !ok || p != geom.Pt(4, 0) {
		t.Errorf("At(4) = %v,%v", p, ok)
	}
	if _, ok := tr.At(3); ok {
		t.Error("At(3) should report no sample")
	}
	if _, ok := tr.At(1); ok {
		t.Error("At before start should report no sample")
	}
	if got := tr.Bounds(); got != (geom.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 8}) {
		t.Errorf("Bounds = %v", got)
	}
}

func TestLocationAtInterpolation(t *testing.T) {
	tr := mustTraj(t, "o1", s(0, 0, 0), s(4, 8, 4), s(6, 8, 8))
	cases := []struct {
		t    Tick
		want geom.Point
		ok   bool
	}{
		{0, geom.Pt(0, 0), true},
		{4, geom.Pt(8, 4), true},
		{6, geom.Pt(8, 8), true},
		{2, geom.Pt(4, 2), true},  // halfway through first gap
		{1, geom.Pt(2, 1), true},  // quarter
		{5, geom.Pt(8, 6), true},  // halfway through second gap
		{-1, geom.Point{}, false}, // before span
		{7, geom.Point{}, false},  // after span
	}
	for _, c := range cases {
		got, ok := tr.LocationAt(c.t)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("LocationAt(%d) = %v,%v want %v,%v", c.t, got, ok, c.want, c.ok)
		}
	}
}

func TestLocationAtSingleSample(t *testing.T) {
	tr := mustTraj(t, "dot", s(5, 1, 2))
	if p, ok := tr.LocationAt(5); !ok || p != geom.Pt(1, 2) {
		t.Errorf("LocationAt(5) = %v,%v", p, ok)
	}
	if _, ok := tr.LocationAt(4); ok {
		t.Error("LocationAt outside single-sample span should fail")
	}
	if tr.Duration() != 1 {
		t.Errorf("Duration = %d, want 1", tr.Duration())
	}
}

func TestClip(t *testing.T) {
	tr := mustTraj(t, "o", s(0, 0, 0), s(2, 2, 0), s(4, 4, 0), s(6, 6, 0))
	c := tr.Clip(1, 5)
	if c == nil || c.Len() != 2 || c.Start() != 2 || c.End() != 4 {
		t.Fatalf("Clip(1,5) = %+v", c)
	}
	if got := tr.Clip(7, 9); got != nil {
		t.Errorf("Clip outside = %+v, want nil", got)
	}
	if got := tr.Clip(0, 6); got == nil || got.Len() != 4 {
		t.Errorf("Clip full = %+v", got)
	}
	if got := tr.Clip(2, 2); got == nil || got.Len() != 1 {
		t.Errorf("Clip single = %+v", got)
	}
}

func TestDBBasics(t *testing.T) {
	db := NewDB()
	if db.Len() != 0 {
		t.Error("new DB not empty")
	}
	if _, _, ok := db.TimeRange(); ok {
		t.Error("empty DB reported a time range")
	}
	a := mustTraj(t, "a", s(0, 0, 0), s(10, 1, 1))
	b := mustTraj(t, "b", s(5, 2, 2), s(20, 3, 3))
	ida := db.Add(a)
	idb := db.Add(b)
	if ida != 0 || idb != 1 {
		t.Errorf("ids = %d,%d", ida, idb)
	}
	if db.Traj(ida) != a || db.Traj(idb) != b {
		t.Error("Traj lookup broken")
	}
	if got, ok := db.ByLabel("b"); !ok || got != b {
		t.Error("ByLabel broken")
	}
	if _, ok := db.ByLabel("zzz"); ok {
		t.Error("ByLabel found a ghost")
	}
	lo, hi, ok := db.TimeRange()
	if !ok || lo != 0 || hi != 20 {
		t.Errorf("TimeRange = %d,%d,%v", lo, hi, ok)
	}
}

func TestDBStats(t *testing.T) {
	db := NewDB()
	// Object a: 11 ticks span, 11 samples (dense).
	var aa []Sample
	for i := Tick(0); i <= 10; i++ {
		aa = append(aa, s(i, float64(i), 0))
	}
	db.Add(mustTraj(t, "a", aa...))
	// Object b: span 0..20 (21 ticks), only 3 samples (sparse).
	db.Add(mustTraj(t, "b", s(0, 0, 1), s(10, 5, 1), s(20, 9, 1)))
	st := db.Stats()
	if st.NumObjects != 2 {
		t.Errorf("NumObjects = %d", st.NumObjects)
	}
	if st.TimeDomainLength != 21 {
		t.Errorf("TimeDomainLength = %d", st.TimeDomainLength)
	}
	if st.TotalPoints != 14 {
		t.Errorf("TotalPoints = %d", st.TotalPoints)
	}
	if st.AvgTrajLen != 7 {
		t.Errorf("AvgTrajLen = %g", st.AvgTrajLen)
	}
	if st.AvgDuration != 16 {
		t.Errorf("AvgDuration = %g", st.AvgDuration)
	}
	wantMissing := 1 - 14.0/32.0
	if diff := st.MissingFraction - wantMissing; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("MissingFraction = %g, want %g", st.MissingFraction, wantMissing)
	}
	if empty := NewDB().Stats(); empty.NumObjects != 0 || empty.TotalPoints != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestSnapshotAt(t *testing.T) {
	db := NewDB()
	db.Add(mustTraj(t, "a", s(0, 0, 0), s(10, 10, 0)))
	db.Add(mustTraj(t, "b", s(5, 0, 5), s(8, 3, 5)))
	db.Add(mustTraj(t, "c", s(20, 0, 0)))

	ids, pts := db.SnapshotAt(5)
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("SnapshotAt(5) ids = %v", ids)
	}
	if pts[0] != geom.Pt(5, 0) { // interpolated midpoint
		t.Errorf("interpolated a at t=5: %v", pts[0])
	}
	if pts[1] != geom.Pt(0, 5) {
		t.Errorf("b at t=5: %v", pts[1])
	}
	ids, _ = db.SnapshotAt(15)
	if len(ids) != 0 {
		t.Errorf("SnapshotAt(15) ids = %v, want none", ids)
	}
	ids, _ = db.SnapshotAt(20)
	if len(ids) != 1 || ids[0] != 2 {
		t.Errorf("SnapshotAt(20) ids = %v", ids)
	}
}

// Property: interpolation stays within the bounding box of the surrounding
// samples and is exact at sample ticks.
func TestPropInterpolationBounded(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	gen := func() *Trajectory {
		n := 2 + r.Intn(20)
		samples := make([]Sample, 0, n)
		tick := Tick(r.Intn(5))
		for i := 0; i < n; i++ {
			samples = append(samples, Sample{T: tick, P: geom.Pt(r.Float64()*100, r.Float64()*100)})
			tick += Tick(1 + r.Intn(5))
		}
		tr, err := NewTrajectory("p", samples)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for i := 0; i < 200; i++ {
		tr := gen()
		for tick := tr.Start(); tick <= tr.End(); tick++ {
			p, ok := tr.LocationAt(tick)
			if !ok {
				t.Fatalf("LocationAt(%d) failed inside span", tick)
			}
			if b := tr.Bounds(); b.ExtendPoint(p) != b {
				t.Fatalf("interpolated point %v outside bounds %v", p, tr.Bounds())
			}
		}
		for _, sm := range tr.Samples {
			if p, ok := tr.LocationAt(sm.T); !ok || p != sm.P {
				t.Fatalf("LocationAt at sample tick %d = %v,%v want %v", sm.T, p, ok, sm.P)
			}
		}
	}
}

// Property: Clip returns exactly the samples inside the window.
func TestPropClipWindow(t *testing.T) {
	f := func(loRaw, hiRaw uint8) bool {
		lo, hi := Tick(loRaw%40), Tick(hiRaw%40)
		if lo > hi {
			lo, hi = hi, lo
		}
		samples := []Sample{s(0, 0, 0), s(7, 1, 1), s(13, 2, 2), s(21, 3, 3), s(34, 4, 4)}
		tr, err := NewTrajectory("x", samples)
		if err != nil {
			return false
		}
		c := tr.Clip(lo, hi)
		want := 0
		for _, sm := range samples {
			if sm.T >= lo && sm.T <= hi {
				want++
			}
		}
		if want == 0 {
			return c == nil
		}
		if c == nil || c.Len() != want {
			return false
		}
		for _, sm := range c.Samples {
			if sm.T < lo || sm.T > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}
