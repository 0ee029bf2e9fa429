package core

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/oracle"
)

// contact is one weighted proximity edge of componentClusterer's log.
type contact struct {
	a, b model.ObjectID
	w    float64
}

// componentClusterer is a minimal non-default backend for tests: connected
// components of its own per-tick contact log at weight ≥ key.Eps, looked
// up by the snapshot's tick (the proxgraph semantics, reimplemented here
// because core's internal tests cannot import proxgraph without a cycle).
type componentClusterer struct {
	log map[model.Tick][]contact
}

func (componentClusterer) Name() string { return "components" }

func (c componentClusterer) Clusters(key ClusterKey, snap TickSnapshot) [][]model.ObjectID {
	parent := map[model.ObjectID]model.ObjectID{}
	var find func(model.ObjectID) model.ObjectID
	find = func(x model.ObjectID) model.ObjectID {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	for _, e := range c.log[snap.T] {
		if e.w >= key.Eps {
			parent[find(e.a)] = find(e.b)
		}
	}
	groups := map[model.ObjectID][]model.ObjectID{}
	for x := range parent {
		groups[find(x)] = append(groups[find(x)], x)
	}
	var out [][]model.ObjectID
	for _, g := range groups {
		if len(g) >= key.M {
			sort.Ints(g)
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// TestWithClustererDefaultIsIdentity pins the refactor: routing every
// algorithm through an explicitly passed DBSCANClusterer yields the exact
// pre-refactor answers, for all variants × worker counts, on random
// databases.
func TestWithClustererDefaultIsIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	p := Params{M: 3, K: 3, Eps: 2.5}
	for trial := 0; trial < 5; trial++ {
		db := randomDB(r, 14, 20)
		for _, algo := range []Option{WithCMC(), WithVariant(VariantCuTS), WithVariant(VariantCuTSPlus), WithVariant(VariantCuTSStar)} {
			for _, workers := range []int{1, 4} {
				want, err := NewQuery(WithParams(p), algo, WithWorkers(workers)).Run(context.Background(), db)
				if err != nil {
					t.Fatal(err)
				}
				got, err := NewQuery(WithParams(p), algo, WithWorkers(workers), WithClusterer(DBSCANClusterer{})).
					Run(context.Background(), db)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d workers %d: WithClusterer(default) answer differs:\n got %v\nwant %v",
						trial, workers, got, want)
				}
			}
		}
	}
}

// TestDBSCANClustererContract holds the backend to the oracle's clusters,
// whole lists in the oracle's order, on unsorted live-feed style snapshots:
// two groups, a border shared by two clusters, noise, and a snapshot below
// m objects, which clusters to nothing.
func TestDBSCANClustererContract(t *testing.T) {
	for _, tc := range []struct {
		key ClusterKey
		ids []model.ObjectID
		pts []geom.Point
	}{
		{ClusterKey{Eps: 1.5, M: 2}, []model.ObjectID{9, 3, 7, 1},
			[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(10, 0), geom.Pt(10.5, 0)}},
		{ClusterKey{Eps: 1, M: 4}, []model.ObjectID{8, 2, 6, 0, 4, 3, 5, 1},
			[]geom.Point{geom.Pt(0, 0), geom.Pt(0.2, 0), geom.Pt(0.4, 0), geom.Pt(1.4, 0),
				geom.Pt(2.4, 0), geom.Pt(2.6, 0), geom.Pt(2.8, 0), geom.Pt(50, 50)}},
		{ClusterKey{Eps: 1, M: 5}, []model.ObjectID{9, 3, 7, 1},
			[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(10, 0), geom.Pt(10.5, 0)}},
	} {
		got := DBSCANClusterer{}.Clusters(tc.key, TickSnapshot{IDs: tc.ids, Pts: tc.pts})
		want := oracle.Clusters(tc.ids, tc.pts, tc.key.M, tc.key.Eps)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("key %+v: clusters %v, oracle %v", tc.key, got, want)
		}
	}
}

// TestWithClustererRequiresCMC: the CuTS filter bounds are theorems about
// Euclidean DBSCAN, so a non-default backend without WithCMC must fail
// validation — for Run and Seq alike.
func TestWithClustererRequiresCMC(t *testing.T) {
	db := buildDB(t, 0, []geom.Point{geom.Pt(0, 0)}, []geom.Point{geom.Pt(1, 0)})
	p := Params{M: 2, K: 1, Eps: 2}
	_, err := NewQuery(WithParams(p), WithClusterer(componentClusterer{})).Run(context.Background(), db)
	if err == nil || !strings.Contains(err.Error(), "requires the CMC algorithm") {
		t.Fatalf("CuTS + custom clusterer: err = %v, want CMC-required error", err)
	}
	for _, serr := range NewQuery(WithParams(p), WithClusterer(componentClusterer{})).Seq(context.Background(), db) {
		if serr == nil || !strings.Contains(serr.Error(), "requires the CMC algorithm") {
			t.Fatalf("Seq err = %v, want CMC-required error", serr)
		}
	}
	// With CMC the combination is legal.
	if _, err := NewQuery(WithParams(p), WithCMC(), WithClusterer(componentClusterer{})).Run(context.Background(), db); err != nil {
		t.Fatalf("CMC + custom clusterer failed: %v", err)
	}
}

// impostorClusterer is componentClusterer under the default backend's name.
type impostorClusterer struct{ componentClusterer }

func (impostorClusterer) Name() string { return DefaultBackend }

// TestCustomClustererNamedDBSCAN: the default backend is a type, not a
// name. A custom backend that calls itself "dbscan" still requires CMC —
// the CuTS family would otherwise run and silently ignore it — and a CMC
// query, partitioned or not, clusters with it rather than with DBSCAN.
func TestCustomClustererNamedDBSCAN(t *testing.T) {
	// Two objects far apart (no DBSCAN cluster) but in contact at every tick.
	db := buildDB(t, 0,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(0, 0)},
		[]geom.Point{geom.Pt(100, 0), geom.Pt(100, 0), geom.Pt(100, 0)})
	log := map[model.Tick][]contact{}
	for tk := model.Tick(0); tk < 3; tk++ {
		log[tk] = []contact{{0, 1, 5}}
	}
	c := impostorClusterer{componentClusterer{log: log}}
	p := Params{M: 2, K: 3, Eps: 1}
	_, err := NewQuery(WithParams(p), WithClusterer(c)).Run(context.Background(), db)
	if err == nil || !strings.Contains(err.Error(), "requires the CMC algorithm") {
		t.Fatalf("CuTS* + custom clusterer named %q: err = %v, want CMC-required error", DefaultBackend, err)
	}
	want := Result{{Objects: ids(0, 1), Start: 0, End: 2}}
	got, err := NewQuery(WithParams(p), WithCMC(), WithClusterer(c)).Run(context.Background(), db)
	if err != nil || !got.Equal(want) {
		t.Fatalf("CMC + custom clusterer named %q = %v, %v; want %v", DefaultBackend, got, err, want)
	}
}

// TestClusterSourceBackendKeys: a source owns its clusterer, so the key is
// (e, m) alone — two sources at one key with different backends share the
// key, not the clusters. Each answers its own backend's clusters; the
// public constructor runs DBSCAN and refuses an invalid key.
func TestClusterSourceBackendKeys(t *testing.T) {
	key := ClusterKey{Eps: 2, M: 2}
	def, err := NewClusterSource(key)
	if err != nil {
		t.Fatal(err)
	}
	comp := newSource(key, componentClusterer{log: map[model.Tick][]contact{3: {{0, 1, 5}}}}, DefaultChurnThreshold, nil)
	if def.key != key || comp.key != key {
		t.Fatalf("keys = %+v / %+v, want %+v for both", def.key, comp.key, key)
	}
	if comp.c.Name() != "components" || def.c.Name() != DefaultBackend {
		t.Fatalf("clusterer names = %q/%q", comp.c.Name(), def.c.Name())
	}
	if _, err := NewClusterSource(ClusterKey{Eps: 2, M: 0}); err == nil {
		t.Error("m = 0 accepted")
	}

	// The same snapshot, two answers: the objects are far apart (no DBSCAN
	// cluster) but in contact at tick 3. Pass counters are independent per
	// source; Cluster and the Snapshot shorthand both count.
	snap := TickSnapshot{
		T:   3,
		IDs: []model.ObjectID{0, 1},
		Pts: []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)},
	}
	if got := comp.Cluster(snap); len(got) != 1 || got[0][0] != 0 || got[0][1] != 1 {
		t.Fatalf("component cluster = %v", got)
	}
	if got := def.Cluster(snap); len(got) != 0 {
		t.Fatalf("dbscan cluster = %v, want none", got)
	}
	def.Snapshot(snap.IDs, snap.Pts)
	if def.Passes() != 2 || comp.Passes() != 1 {
		t.Fatalf("passes = %d/%d, want 2/1", def.Passes(), comp.Passes())
	}
}

// TestMonitorBackendIsolation runs the same stream through a DBSCAN
// monitor and a component monitor at identical (e, m, k), each fed by its
// own source at the one ClusterKey: the component backend chains its
// contact log (one long convoy), while DBSCAN chains positions (none — the
// points are spread out). Equal keys do not make a shared pass; sharing a
// source does, and these two must not.
func TestMonitorBackendIsolation(t *testing.T) {
	p := Params{M: 2, K: 3, Eps: 1}
	defSrc, err := NewClusterSource(p.ClusterKey())
	if err != nil {
		t.Fatal(err)
	}
	contacts := map[model.Tick][]contact{}
	for tick := model.Tick(1); tick <= 4; tick++ {
		contacts[tick] = []contact{{0, 1, 1}} // in contact at every tick
	}
	compSrc := newSource(p.ClusterKey(), componentClusterer{log: contacts}, DefaultChurnThreshold, nil)
	defMon, err := NewMonitor(p)
	if err != nil {
		t.Fatal(err)
	}
	compMon, err := NewMonitor(p)
	if err != nil {
		t.Fatal(err)
	}
	var defOut, compOut []Convoy
	for tick := model.Tick(1); tick <= 4; tick++ {
		snap := TickSnapshot{
			T:   tick,
			IDs: []model.ObjectID{0, 1},
			Pts: []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)}, // far apart
		}
		d, err := defMon.AdvanceClusters(tick, defSrc.Cluster(snap))
		if err != nil {
			t.Fatal(err)
		}
		c, err := compMon.AdvanceClusters(tick, compSrc.Cluster(snap))
		if err != nil {
			t.Fatal(err)
		}
		defOut = append(defOut, d...)
		compOut = append(compOut, c...)
	}
	defOut = append(defOut, defMon.Close()...)
	compOut = append(compOut, compMon.Close()...)
	if len(defOut) != 0 {
		t.Errorf("dbscan monitor found %v, want none", defOut)
	}
	want := Canonicalize([]Convoy{{Objects: []model.ObjectID{0, 1}, Start: 1, End: 4}})
	if !Canonicalize(compOut).Equal(want) {
		t.Errorf("component monitor found %v, want %v", compOut, want)
	}
	if defSrc.Passes() != 4 || compSrc.Passes() != 4 {
		t.Errorf("passes = %d/%d, want 4/4", defSrc.Passes(), compSrc.Passes())
	}
}
