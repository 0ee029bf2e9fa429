package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

func TestMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(Params{M: 0, K: 1, Eps: 1}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := NewClusterSource(ClusterKey{Eps: -1, M: 2}); err == nil {
		t.Error("negative eps accepted")
	}
	if _, err := NewClusterSource(ClusterKey{Eps: 1, M: 0}); err == nil {
		t.Error("m=0 accepted")
	}
	m, err := NewMonitor(Params{M: 2, K: 2, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AdvanceClusters(3, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AdvanceClusters(3, nil); err == nil {
		t.Error("non-advancing tick accepted")
	}
	if _, err := m.AdvanceClusters(2, nil); err == nil {
		t.Error("backwards tick accepted")
	}
	m.Close()
	if _, err := m.AdvanceClusters(4, nil); err == nil {
		t.Error("AdvanceClusters after Close accepted")
	}
	if again := m.Close(); again != nil {
		t.Errorf("second Close emitted %v", again)
	}
}

func TestMonitorTickGapBreaksConvoy(t *testing.T) {
	src, _ := NewClusterSource(ClusterKey{Eps: 1, M: 2})
	m, _ := NewMonitor(Params{M: 2, K: 2, Eps: 1})
	objs := []model.ObjectID{0, 1}
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0)}
	for _, tick := range []model.Tick{0, 1} {
		if _, err := m.AdvanceClusters(tick, src.Snapshot(objs, pts)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.AdvanceClusters(5, src.Snapshot(objs, pts))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Start != 0 || got[0].End != 1 {
		t.Fatalf("gap emission = %v", got)
	}
	if rest := m.Close(); len(rest) != 0 {
		t.Fatalf("post-gap candidate (lifetime 1) flushed: %v", rest)
	}
}

// The tentpole property: each of N monitors fed from shared cluster
// sources emits (after canonicalization) exactly what a standalone
// Streamer with the same (m, k, e) emits over the same tick sequence — and
// the pass counters prove monitors sharing (e, m) trigger exactly one
// clustering pass per tick.
func TestPropMonitorsEqualStreamers(t *testing.T) {
	r := rand.New(rand.NewSource(929))
	for iter := 0; iter < 12; iter++ {
		db := randomDB(r, 3+r.Intn(5), 8+r.Intn(12))
		// Parameter sets engineered to share clustering keys: the first
		// three share one (e, m) with different k, the rest differ in e or m.
		e1 := 0.5 + r.Float64()*2
		e2 := e1 + 0.75
		paramSets := []Params{
			{M: 2, K: 1, Eps: e1},
			{M: 2, K: 2, Eps: e1},
			{M: 2, K: int64(2 + r.Intn(3)), Eps: e1},
			{M: 2, K: 2, Eps: e2},
			{M: 3, K: 1, Eps: e1},
		}

		sources := make(map[ClusterKey]*ClusterSource)
		monitors := make([]*Monitor, len(paramSets))
		for i, p := range paramSets {
			if _, ok := sources[p.ClusterKey()]; !ok {
				src, err := NewClusterSource(p.ClusterKey())
				if err != nil {
					t.Fatal(err)
				}
				sources[p.ClusterKey()] = src
			}
			mon, err := NewMonitor(p)
			if err != nil {
				t.Fatal(err)
			}
			monitors[i] = mon
		}
		if len(sources) != 3 {
			t.Fatalf("distinct keys = %d, want 3", len(sources))
		}

		emitted := make([][]Convoy, len(paramSets))
		ticks := int64(0)
		err := ReplayTicks(db, func(tick model.Tick, ids []model.ObjectID, pts []geom.Point) error {
			ticks++
			clusters := make(map[ClusterKey][][]model.ObjectID, len(sources))
			for key, src := range sources {
				clusters[key] = src.Snapshot(ids, pts) // one pass per key per tick
			}
			for i, mon := range monitors {
				got, err := mon.AdvanceClusters(tick, clusters[paramSets[i].ClusterKey()])
				if err != nil {
					return err
				}
				emitted[i] = append(emitted[i], got...)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for key, src := range sources {
			if src.Passes() != ticks {
				t.Fatalf("iter %d: key %+v ran %d clustering passes over %d ticks",
					iter, key, src.Passes(), ticks)
			}
		}
		for i, mon := range monitors {
			emitted[i] = append(emitted[i], mon.Close()...)
			want, err := streamDB(db, paramSets[i])
			if err != nil {
				t.Fatal(err)
			}
			if got := Canonicalize(emitted[i]); !got.Equal(want) {
				t.Fatalf("iter %d monitor %d (m=%d k=%d e=%.3f):\nmonitor  = %v\nstreamer = %v",
					iter, i, paramSets[i].M, paramSets[i].K, paramSets[i].Eps, got, want)
			}
		}
	}
}

func TestFirstDuplicateID(t *testing.T) {
	cases := []struct {
		in      []model.ObjectID
		wantID  model.ObjectID
		wantDup bool
	}{
		{nil, 0, false},
		{ids(1), 0, false},
		{ids(1, 2, 3), 0, false},
		{ids(1, 1, 2), 1, true},  // sorted fast path
		{ids(2, 1, 2), 2, true},  // unsorted set fallback
		{ids(3, 2, 1), 0, false}, // descending, no dup
	}
	for _, c := range cases {
		id, dup := FirstDuplicateID(c.in)
		if dup != c.wantDup || (dup && id != c.wantID) {
			t.Errorf("FirstDuplicateID(%v) = (%d, %v), want (%d, %v)",
				c.in, id, dup, c.wantID, c.wantDup)
		}
	}
}
