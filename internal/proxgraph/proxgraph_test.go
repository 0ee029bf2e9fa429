package proxgraph

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
)

func TestComponents(t *testing.T) {
	edges := []Edge{
		{A: 1, B: 2, W: 1},
		{A: 2, B: 3, W: 1},
		{A: 7, B: 8, W: 0.5}, // below threshold
		{A: 5, B: 6, W: 2},
		{A: 9, B: 9, W: 1}, // degenerate self edge: a 1-member component
	}
	got := Components(edges, 1, 2)
	want := [][]model.ObjectID{{1, 2, 3}, {5, 6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Components = %v, want %v", got, want)
	}
	if got := Components(edges, 1, 4); len(got) != 0 {
		t.Fatalf("Components(m=4) = %v, want none", got)
	}
	if got := Components(nil, 1, 2); len(got) != 0 {
		t.Fatalf("Components(no edges) = %v, want none", got)
	}
	// Threshold 0.25 admits the (7,8) edge too.
	got = Components(edges, 0.25, 2)
	want = [][]model.ObjectID{{1, 2, 3}, {5, 6}, {7, 8}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Components(minW=0.25) = %v, want %v", got, want)
	}
}

func TestClustererSnapshotEdges(t *testing.T) {
	// The Clusterer reads the snapshot's tick only: that tick's edges come
	// from its Log, whatever positions the snapshot carries.
	key := core.ClusterKey{Eps: 1, M: 2}
	l := NewLog()
	if err := l.Add("x", "y", 3, 5); err != nil {
		t.Fatal(err)
	}
	snap := core.TickSnapshot{T: 3, IDs: []model.ObjectID{0, 1}, Pts: []geom.Point{geom.Pt(0, 0), geom.Pt(1e6, 0)}}
	got := Clusterer{Log: l}.Clusters(key, snap)
	if want := [][]model.ObjectID{{0, 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Clusters (log lookup) = %v, want %v", got, want)
	}
	// A tick the log holds no edges at, and a clusterer without a log,
	// cluster nothing.
	if got := (Clusterer{Log: l}).Clusters(key, core.TickSnapshot{T: 4, IDs: snap.IDs, Pts: snap.Pts}); len(got) != 0 {
		t.Fatalf("Clusters (tick without edges) = %v, want none", got)
	}
	if got := (Clusterer{}).Clusters(key, snap); len(got) != 0 {
		t.Fatalf("Clusters (no log) = %v, want none", got)
	}
}

func TestLogValidation(t *testing.T) {
	l := NewLog()
	if err := l.Add("", "b", 1, 1); err == nil {
		t.Error("empty label accepted")
	}
	if err := l.Add("a", "a", 1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := l.Add("a", "b", 1, -1); err == nil {
		t.Error("negative weight accepted")
	}
	if err := l.Add("a", "b", 1, nan()); err == nil {
		t.Error("NaN weight accepted")
	}
	if err := l.Add("a", "b", 1, 1); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
}

func nan() float64 {
	var z float64
	return z / z
}

// TestHandCheckedConvoy is the fixture of the acceptance criteria: a
// coordinate-free contact log whose only (m=3, k=3) convoy is {a, b, c}
// over ticks [1, 5], hand-checked. The d–a contact at tick 1 is filtered
// by the weight threshold; at tick 6 the b–c contact stops and the
// remaining component {a, b} is below m.
func TestHandCheckedConvoy(t *testing.T) {
	l := NewLog()
	for tick := model.Tick(1); tick <= 5; tick++ {
		if err := l.Add("a", "b", tick, 1); err != nil {
			t.Fatal(err)
		}
		if err := l.Add("b", "c", tick, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Add("d", "a", 1, 0.5); err != nil { // below Eps=1
		t.Fatal(err)
	}
	if err := l.Add("a", "b", 6, 1); err != nil { // component of 2 < m
		t.Fatal(err)
	}

	db, err := l.DB()
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{M: 3, K: 3, Eps: 1}
	res, err := core.NewQuery(core.WithParams(p), core.WithCMC(), core.WithClusterer(l.Clusterer())).
		Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d convoys (%v), want 1", len(res), res)
	}
	c := res[0]
	var labels []string
	for _, id := range c.Objects {
		labels = append(labels, l.Label(id))
	}
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(labels, want) {
		t.Errorf("convoy objects = %v, want %v", labels, want)
	}
	if c.Start != 1 || c.End != 5 {
		t.Errorf("convoy interval = [%d, %d], want [1, 5]", c.Start, c.End)
	}
}

// labeledConvoys projects a result onto object labels so answers from
// databases with different dense-ID assignments compare.
func labeledConvoys(res core.Result, label func(model.ObjectID) string) []string {
	out := make([]string, 0, len(res))
	for _, c := range res {
		ls := make([]string, len(c.Objects))
		for i, id := range c.Objects {
			ls[i] = label(id)
		}
		sort.Strings(ls)
		out = append(out, fmt.Sprintf("%v@[%d,%d]", ls, c.Start, c.End))
	}
	sort.Strings(out)
	return out
}

// TestDBSCANEquivalenceM2 pins the m=2 coincidence of the two density
// notions: a DBSCAN cluster at minPts=2 is exactly a connected component
// of the ≤-eps distance graph, so CMC over a trajectory database and CMC
// over its derived contact log (threshold 1, weight-1 edges) find the
// same convoys. Only m=2 — at larger m DBSCAN's core-point requirement
// deliberately diverges from plain connectivity.
func TestDBSCANEquivalenceM2(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		db := randomWalkDB(t, rand.New(rand.NewSource(int64(100+trial))))
		p := core.Params{M: 2, K: 2, Eps: 1.5}
		want, err := core.NewQuery(core.WithParams(p), core.WithCMC()).Run(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		l, err := FromDB(db, p.Eps)
		if err != nil {
			t.Fatal(err)
		}
		ldb, err := l.DB()
		if err != nil {
			t.Fatal(err)
		}
		pg := core.Params{M: 2, K: 2, Eps: 1} // Eps thresholds weight-1 edges
		got, err := core.NewQuery(core.WithParams(pg), core.WithCMC(), core.WithClusterer(l.Clusterer())).
			Run(context.Background(), ldb)
		if err != nil {
			t.Fatal(err)
		}
		dbLabel := func(id model.ObjectID) string { return db.Traj(id).Label }
		wantL := labeledConvoys(want, dbLabel)
		gotL := labeledConvoys(got, l.Label)
		if !reflect.DeepEqual(wantL, gotL) {
			t.Fatalf("trial %d: proxgraph convoys %v != dbscan convoys %v", trial, gotL, wantL)
		}
	}
}

// randomWalkDB builds a small random-walk trajectory database with labels
// o0..oN and occasional gaps at the span edges.
func randomWalkDB(t *testing.T, rng *rand.Rand) *model.DB {
	t.Helper()
	db := model.NewDB()
	n := 4 + rng.Intn(4)
	T := 6 + rng.Intn(5)
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*6, rng.Float64()*6
		lo := rng.Intn(2)
		hi := T - rng.Intn(2)
		var samples []model.Sample
		for tick := lo; tick < hi; tick++ {
			x += rng.Float64()*2 - 1
			y += rng.Float64()*2 - 1
			samples = append(samples, model.Sample{T: model.Tick(tick), P: geom.Pt(x, y)})
		}
		if len(samples) == 0 {
			samples = []model.Sample{{T: 0, P: geom.Pt(x, y)}}
		}
		tr, err := model.NewTrajectory(fmt.Sprintf("o%d", i), samples)
		if err != nil {
			t.Fatal(err)
		}
		db.Add(tr)
	}
	return db
}

func TestRoundTrip(t *testing.T) {
	l := NewLog()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(l.Add("badger", "fox", 3, 1.5))
	check(l.Add("fox", "owl", 1, 0.25))
	check(l.Add("badger", "owl", 3, 2))
	buf := bytes.NewBufferString("a,b,t,w\n")
	for _, e := range l.Records() {
		fmt.Fprintf(buf, "%s,%s,%d,%v\n", e.A, e.B, e.T, e.W)
	}
	back, err := ReadLog(buf)
	check(err)
	if !reflect.DeepEqual(back.Records(), l.Records()) {
		t.Fatalf("round trip records = %v, want %v", back.Records(), l.Records())
	}
	if lo, hi, ok := back.TimeRange(); !ok || lo != 1 || hi != 3 {
		t.Fatalf("TimeRange = %d,%d,%v", lo, hi, ok)
	}
	if back.Objects() != 3 {
		t.Fatalf("Objects = %d, want 3", back.Objects())
	}
}

// TestSynthesizedDB checks the Log→DB bridge invariants: IDs and labels
// match the log, every object is alive over exactly its contact span.
func TestSynthesizedDB(t *testing.T) {
	l := NewLog()
	if err := l.Add("a", "b", 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Add("b", "c", 5, 1); err != nil {
		t.Fatal(err)
	}
	db, err := l.DB()
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 {
		t.Fatalf("db.Len = %d, want 3", db.Len())
	}
	for id := 0; id < 3; id++ {
		if got, want := db.Traj(id).Label, l.Label(id); got != want {
			t.Errorf("traj %d label = %q, want %q", id, got, want)
		}
	}
	// b spans ticks 2..5; a only tick 2; c only tick 5.
	ids, _ := db.SnapshotAt(3)
	if want := []model.ObjectID{1}; !reflect.DeepEqual(ids, want) {
		t.Errorf("alive at tick 3 = %v, want %v", ids, want)
	}
	// Memoization: same pointer until the next Add.
	db2, _ := l.DB()
	if db2 != db {
		t.Error("DB() not memoized")
	}
	if err := l.Add("c", "d", 6, 1); err != nil {
		t.Fatal(err)
	}
	db3, _ := l.DB()
	if db3 == db {
		t.Error("DB() not invalidated by Add")
	}
	if db3.Len() != 4 {
		t.Fatalf("db3.Len = %d, want 4", db3.Len())
	}
}

// A database whose last tick is MaxTick must not wrap a tick walk (`t++`
// overflows back below hi and the loop never ends). The contact-log bridge
// walks through model.TickSpan: on the 3-tick domain [MaxTick-2, MaxTick]
// it terminates, and the derived contact log holds exactly the brute-force
// close pairs.
func TestTickWalksTerminateAtMaxTick(t *testing.T) {
	const lo = model.MaxTick - 2
	db := model.NewDB()
	for i, y := range []float64{0, 0.5, 50} {
		var samples []model.Sample
		for k := 0; k < 3; k++ {
			if i == 1 && k == 1 {
				continue // o1 skips the middle tick: interpolated at (1, 0.5)
			}
			samples = append(samples, model.Sample{T: lo + model.Tick(k), P: geom.Pt(float64(k), y)})
		}
		tr, err := model.NewTrajectory(string(rune('a'+i)), samples)
		if err != nil {
			t.Fatal(err)
		}
		db.Add(tr)
	}
	done := make(chan *Log, 1) // buffered: a late finisher must not block after the timeout
	go func() {
		log, err := FromDB(db, 1)
		if err != nil {
			t.Error(err)
		}
		done <- log
	}()
	var log *Log
	select {
	case log = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a tick walk over [MaxTick-2, MaxTick] did not terminate")
	}
	if t.Failed() {
		t.FailNow()
	}
	// Brute force: every pair within 1 at every tick, by LocationAt.
	for k := 0; k < 3; k++ {
		tick := lo + model.Tick(k)
		want := 0
		for i := 0; i < db.Len(); i++ {
			for j := i + 1; j < db.Len(); j++ {
				pi, _ := db.Traj(i).LocationAt(tick)
				pj, _ := db.Traj(j).LocationAt(tick)
				if geom.D(pi, pj) <= 1 {
					want++
				}
			}
		}
		got := log.EdgesAt(tick)
		if len(got) != want || want != 1 {
			t.Fatalf("tick MaxTick-%d: %d contacts, brute force %d (want the one a–b pair)", 2-k, len(got), want)
		}
		if la, lb := log.Label(got[0].A), log.Label(got[0].B); la != "a" || lb != "b" || got[0].W != 1 {
			t.Fatalf("tick MaxTick-%d: contact %s–%s w=%g, want a–b w=1", 2-k, la, lb, got[0].W)
		}
	}
}
