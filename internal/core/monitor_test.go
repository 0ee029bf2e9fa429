package core

import (
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
