package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/wire"
)

func TestTailPercentilePicksHighestWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {5800, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(asc, tc.p); got != tc.want {
			t.Errorf("percentile(p%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// The acceptance check computes spreads with Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %g, %g; Python gives 1, 4.5", q1, q3)
	}
	if s := spreadShare([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); s != 1 {
		t.Errorf("spreadShare(1..10) = %g, want (8.25-2.75)/5.5 = 1", s)
	}
}

// fakeClock is a clock only the test moves.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDueTimeAndAStallDelaysLaterSamples(t *testing.T) {
	c := &fakeClock{now: time.Unix(1000, 0)}
	const msec = time.Millisecond
	// 100 ops/s: one due every 10 ms. Every reply takes 2 ms except op 1,
	// which stalls for 25 ms.
	service := []time.Duration{2 * msec, 25 * msec, 2 * msec, 2 * msec, 2 * msec}
	lat, lag, failed := openLoop(c, 100, len(service), nil, func(i int) bool {
		c.now = c.now.Add(service[i])
		return i != 3
	})
	// op 0: due 0, done 2. op 1: due 10, done 35. op 2: due 20 but sent at
	// 35 (one in flight), done 37 → 17 ms from its due time, not 2.
	// op 3: due 30, sent 37, done 39 → 9 ms. op 4: due 40, on time again.
	wantLat := []time.Duration{2 * msec, 25 * msec, 17 * msec, 9 * msec, 2 * msec}
	wantLag := []time.Duration{0, 0, 15 * msec, 7 * msec, 0}
	if !slices.Equal(lat, wantLat) {
		t.Errorf("latencies %v, want %v (taken from each op's due time)", lat, wantLat)
	}
	if !slices.Equal(lag, wantLag) {
		t.Errorf("send lag %v, want %v", lag, wantLag)
	}
	if failed != 1 {
		t.Errorf("failed = %d, want 1", failed)
	}
}

func TestOpenLoopStopsWhenQuitCloses(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	quit := make(chan struct{})
	lat, _, _ := openLoop(c, 1000, 100, quit, func(i int) bool {
		if i == 2 {
			close(quit)
		}
		return true
	})
	if len(lat) != 3 {
		t.Errorf("ran %d ops, want 3 (quit closed during the third)", len(lat))
	}
}

func TestClosedLoopRunsBackToBackUntilBudgetAndMinimum(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	op := func(int) bool { c.now = c.now.Add(10 * time.Millisecond); return true }
	lat, failed, wall := closedLoop(c, 95*time.Millisecond, 3, 0, op)
	if len(lat) != 10 || failed != 0 || wall != 100*time.Millisecond {
		t.Errorf("budget-bound loop: %d ops, %d failed, wall %v; want 10, 0, 100ms", len(lat), failed, wall)
	}
	lat, _, _ = closedLoop(c, 0, 7, 0, op)
	if len(lat) != 7 {
		t.Errorf("minimum-bound loop ran %d ops, want 7", len(lat))
	}
	lat, _, _ = closedLoop(c, time.Hour, 0, 4, op)
	if len(lat) != 4 {
		t.Errorf("count-bound loop ran %d ops, want 4", len(lat))
	}
}

func TestTimedLoopRunsExactlyAFixedCount(t *testing.T) {
	rc := &runCtx{values: map[string]float64{}}
	for _, n := range []int{3, 23, 100} {
		var seen []int
		lat := rc.timedLoop(0, n, n, func(i int) bool { seen = append(seen, i); return true }, func(int) int64 { return 7 })
		if len(lat) != n || len(seen) != n || seen[n-1] != n-1 {
			t.Errorf("fixed count %d: ran %d ops, indices %v", n, len(lat), seen)
		}
	}
	if v := rc.values["allocs_per_point_tick"]; v < 0 {
		t.Errorf("allocs_per_point_tick = %g", v)
	}
	if v := rc.values["point_ticks_per_s"]; v <= 0 {
		t.Errorf("point_ticks_per_s = %g, want the median slice's positive rate", v)
	}
}

func TestJudge(t *testing.T) {
	tight := func(m float64) []float64 { return []float64{m * 0.99, m, m, m * 1.01, m} }
	wide := func(m float64) []float64 { return []float64{m * 0.7, m * 0.9, m, m * 1.1, m * 1.3} }
	for _, tc := range []struct {
		name    string
		a, b    []float64
		better  string
		bound   float64
		verdict string
	}{
		{"within the bound", tight(100), tight(104), lower, 0.05, verdictOK},
		{"worse by more than the bound", tight(100), tight(108), lower, 0.05, verdictWorse},
		{"better is never worse", tight(100), tight(50), lower, 0.05, verdictOK},
		{"higher is better: a drop is worse", tight(100), tight(90), higher, 0.05, verdictWorse},
		{"higher is better: a rise is ok", tight(100), tight(120), higher, 0.05, verdictOK},
		{"spread wider than the bound", wide(100), wide(101), lower, 0.05, verdictUnresolved},
		{"wide spread hides a regression too", wide(100), wide(130), lower, 0.05, verdictUnresolved},
		{"wide spread, yet every run better", wide(100), wide(40), lower, 0.05, verdictOK},
		{"exact metric, zero bound, unchanged", []float64{21.6, 21.6}, []float64{21.6, 21.6}, lower, 0, verdictOK},
		{"exact metric, zero bound, grew", []float64{21.6, 21.6}, []float64{21.7, 21.7}, lower, 0, verdictWorse},
	} {
		if _, _, got := judge(tc.a, tc.b, tc.better, tc.bound); got != tc.verdict {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.verdict)
		}
	}
	worseBy, _, _ := judge(tight(100), tight(110), lower, 0.25)
	if math.Abs(worseBy-0.10) > 1e-9 {
		t.Errorf("worseBy = %g, want 0.10 (share of the base median)", worseBy)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	const u = time.Microsecond
	spans := []span{
		{Layer: lOp, Parent: -1, Start: 0, End: 100 * u},                // 0: root
		{Layer: lTsioReadBinary, Parent: 0, Start: 10 * u, End: 30 * u}, // 1
		{Layer: lDistShardRpc, Parent: 0, Start: 40 * u, End: 80 * u},   // 2: two RPCs
		{Layer: lDistShardRpc, Parent: 0, Start: 50 * u, End: 90 * u},   // 3: in parallel
		{Layer: lCoreChain, Parent: 1, Start: 15 * u, End: 20 * u},      // 4: grandchild
	}
	want := []time.Duration{
		30 * u, // 100 − 20 − |[40,90]| : overlapping children count once
		15 * u, // 20 − 5
		40 * u, 40 * u,
		5 * u,
	}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	r := &recorder{spans: spans}
	by := r.layerSelf(0)
	if by[lDistShardRpc] != 80*u || by[lOp] != 30*u {
		t.Errorf("per-layer self %v", by)
	}
	if by := r.layerSelf(2); by[lTsioReadBinary] != 0 || by[lCoreChain] != 5*u {
		t.Errorf("per-layer self from span 2 on: %v", by)
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var r *recorder
	r.end(r.start(lOp, 0, -1)) // must not panic
	rec := newRecorder()
	root := rec.start(lOp, 7, -1)
	child := rec.start(lWalAppend, 7, root)
	rec.end(child)
	rec.end(root)
	if len(rec.spans) != 2 || rec.spans[1].Parent != int32(root) || rec.spans[1].Op != 7 {
		t.Fatalf("recorded %+v", rec.spans)
	}
	if s := rec.spans[0]; s.End < rec.spans[1].End || s.Start > rec.spans[1].Start {
		t.Errorf("root %+v does not enclose child %+v", s, rec.spans[1])
	}
}

func TestCanonIgnoresOrder(t *testing.T) {
	a := []wire.ConvoyJSON{{Objects: []string{"b", "a"}, Start: 5, End: 9}, {Objects: []string{"c", "d"}, Start: 1, End: 2}}
	b := []wire.ConvoyJSON{{Objects: []string{"c", "d"}, Start: 1, End: 2}, {Objects: []string{"a", "b"}, Start: 5, End: 9}}
	if !slices.Equal(canon(a), canon(b)) {
		t.Errorf("canon differs: %v vs %v", canon(a), canon(b))
	}
	b[0].End = 3
	if slices.Equal(canon(a), canon(b)) {
		t.Error("canon missed a changed interval")
	}
}

func TestTickStreamRoundTrips(t *testing.T) {
	db := model.NewDB()
	for _, o := range []struct {
		label string
		x     float64
	}{{"a", 0.1}, {"b", 1e-7}, {`q"uote`, -3.25}} {
		tr, err := model.NewTrajectory(o.label, []model.Sample{{T: 3, P: geom.Pt(o.x, 1)}, {T: 5, P: geom.Pt(o.x+2, 1)}})
		if err != nil {
			t.Fatal(err)
		}
		db.Add(tr)
	}
	s := encodeTicks(db, 3, 5)
	if s.len() != 3 || s.positions(0, 3) != 9 {
		t.Fatalf("stream has %d ticks, %d positions", s.len(), s.positions(0, 3))
	}
	var joined wire.TicksRequest
	if err := json.Unmarshal(s.batch(0, 3), &joined); err != nil {
		t.Fatalf("joined batch is not valid JSON: %v", err)
	}
	for i := 0; i < s.len(); i++ {
		var req wire.TicksRequest
		if err := json.Unmarshal(s.body(i), &req); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if !reflect.DeepEqual(req.Ticks[0], joined.Ticks[i]) {
			t.Errorf("tick %d differs between its own body and the joined batch", i)
		}
		ids, pts := db.SnapshotAt(s.T[i])
		for j, pos := range req.Ticks[0].Positions {
			if pos.X != pts[j].X || pos.Y != pts[j].Y || pos.ID != wire.DBLabels(db)(ids[j]) {
				t.Errorf("tick %d position %d = %+v, database has %v", i, j, pos, pts[j])
			}
		}
	}
}

// BENCHMARK.json at the repository root declares what this package
// measures; the two must not drift apart.
func TestBenchmarkJSONMatchesTheLadder(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this checkout: %v", err)
	}
	var decl struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(decl.Paths, []string{"bench/ladder"}) {
		t.Errorf("paths = %v", decl.Paths)
	}
	if decl.RunSeconds != pinnedSeconds {
		t.Errorf("run_seconds = %d, the pinned run length is %d", decl.RunSeconds, pinnedSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.Name || d.Why != w.Why {
			t.Errorf("workload %d declared as %q (%q), defined as %q (%q)", i, d.Name, d.Why, w.Name, w.Why)
		}
	}
	if !slices.Equal(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end declared %+v\ndefined %+v", decl.EndToEnd, endToEnd)
	}
	if !slices.Equal(decl.PerLayer, perLayer) {
		t.Errorf("per_layer declared %+v\ndefined %+v", decl.PerLayer, perLayer)
	}
	hasSetup := false
	for _, d := range endToEnd {
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

func TestFinishReportsExactlyTheDeclaredMetrics(t *testing.T) {
	rec := newRecord("truck-cmc", 1, 12, true)
	rec.Attempted = 3
	rec.finish(map[string]float64{"grid.within_ns": 60, "not.declared": 1})
	if len(rec.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, %d declared", len(rec.Metrics), len(perLayer))
	}
	if m := rec.Metrics["grid.within_ns"]; m.Value != 60 || m.Unit != "ns" {
		t.Errorf("grid.within_ns = %+v", m)
	}
	if _, ok := rec.Metrics["not.declared"]; ok {
		t.Error("an undeclared metric was reported")
	}
	if !rec.Correct {
		t.Error("a run with attempts and no failures must be correct")
	}
	rec.fail(os.ErrNotExist)
	rec.finish(nil)
	if rec.Correct {
		t.Error("a run with a failed op must not be correct")
	}
}
