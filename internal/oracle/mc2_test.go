package oracle_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
)

// mc2 — the moving-cluster baseline of Kalnis et al. used by the appendix
// accuracy study (Figure 19). A moving cluster is a sequence of snapshot
// clusters at consecutive time points whose pairwise Jaccard overlap
// |c_t ∩ c_{t+1}| / |c_t ∪ c_{t+1}| is at least θ. There is no lifetime
// constraint and membership may drift along the chain, which is exactly why
// moving clusters cannot answer convoy queries (Section 2.1): depending on
// θ they report both false positives and false negatives.
//
// To compare against convoy answers, each maximal chain is cast to a
// convoy-shaped result carrying the chain's *common* objects (the
// intersection of all snapshot clusters in the chain) and its time
// interval. The snapshot clustering is CMC's (eps = p.Eps, minPts = p.M):
// one core.ClusterSource over the sweep cursor. p.K is deliberately
// ignored — moving clusters have no lifetime constraint.
func mc2(db *model.DB, p core.Params, theta float64) ([]core.Convoy, error) {
	if theta < 0 || theta > 1 {
		return nil, fmt.Errorf("MC2 theta must be in [0,1], got %g", theta)
	}
	src, err := core.NewClusterSource(p.ClusterKey())
	if err != nil {
		return nil, err
	}
	lo, hi, ok := db.TimeRange()
	if !ok {
		return nil, nil
	}
	var out []core.Convoy
	emit := func(ch *mcChain) {
		if len(ch.common) == 0 {
			return
		}
		out = append(out, core.Convoy{Objects: ch.common, Start: ch.start, End: ch.end})
	}
	var live []*mcChain
	cur := db.Sweep(nil).Cursor()
	for i, n := int64(0), model.TickSpan(lo, hi); i < n; i++ {
		t := lo + model.Tick(i)
		ids, pts := cur.At(t)
		clusters := src.Cluster(core.TickSnapshot{T: t, IDs: ids, Pts: pts})
		extended := make([]bool, len(clusters))
		next := make([]*mcChain, 0, len(clusters))
		index := make(map[string]int)
		add := func(ch *mcChain) {
			key := fmt.Sprint(ch.common, ch.tail)
			if i, dup := index[key]; dup {
				if ch.start < next[i].start {
					next[i].start = ch.start
				}
				return
			}
			index[key] = len(next)
			next = append(next, ch)
		}
		for _, ch := range live {
			survived := false
			for ci, c := range clusters {
				if jaccard(ch.tail, c) >= theta {
					survived = true
					extended[ci] = true
					add(&mcChain{common: common(ch.common, c), tail: c, start: ch.start, end: t})
				}
			}
			if !survived {
				emit(ch)
			}
		}
		for ci, c := range clusters {
			if !extended[ci] {
				add(&mcChain{common: c, tail: c, start: t, end: t})
			}
		}
		live = next
	}
	for _, ch := range live {
		emit(ch)
	}
	return out, nil
}

// mcChain tracks one moving cluster under construction.
type mcChain struct {
	common []model.ObjectID // intersection of the chain's clusters
	tail   []model.ObjectID // last snapshot cluster (for the θ test)
	start  model.Tick
	end    model.Tick
}

// common returns the intersection of two ascending slices (nil when empty).
func common(a, b []model.ObjectID) []model.ObjectID {
	var out []model.ObjectID
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// jaccard returns |a∩b| / |a∪b| for ascending slices; 0 when both empty.
func jaccard(a, b []model.ObjectID) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := len(common(a, b))
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// accuracy quantifies how well a reported answer set matches a reference
// answer set, using the appendix's definitions:
//
//	false positives % = |Rm − Rc| / |Rm| · 100
//	false negatives % = |Rc − Rm| / |Rc| · 100
//
// where membership is exact convoy equality (objects and interval).
type accuracy struct {
	Reported       int     // |Rm|
	Reference      int     // |Rc|
	FalsePositives float64 // percentage
	FalseNegatives float64 // percentage
}

// compareAnswers computes the accuracy of the reported set against the
// reference set.
func compareAnswers(reported, reference []core.Convoy) accuracy {
	rep := accuracy{Reported: len(reported), Reference: len(reference)}
	if rep.Reported > 0 {
		rep.FalsePositives = 100 * float64(missing(reported, reference)) / float64(rep.Reported)
	}
	if rep.Reference > 0 {
		rep.FalseNegatives = 100 * float64(missing(reference, reported)) / float64(rep.Reference)
	}
	return rep
}

// missing counts the convoys of a that b does not hold.
func missing(a, b []core.Convoy) int {
	in := make(map[string]bool, len(b))
	for _, c := range b {
		in[c.String()] = true
	}
	n := 0
	for _, c := range a {
		if !in[c.String()] {
			n++
		}
	}
	return n
}

// rows builds a database from per-tick positions, one row per object
// starting at tick start; a NaN x leaves the object absent at that tick.
func rows(t *testing.T, start model.Tick, rows ...[]geom.Point) *model.DB {
	t.Helper()
	db := model.NewDB()
	for _, row := range rows {
		var samples []model.Sample
		for j, p := range row {
			if !math.IsNaN(p.X) {
				samples = append(samples, model.Sample{T: start + model.Tick(j), P: p})
			}
		}
		tr, err := model.NewTrajectory("", samples)
		if err != nil {
			t.Fatal(err)
		}
		db.Add(tr)
	}
	return db
}

// figure2aDB: objects 0-2 travel together for 3 ticks; object 3 shares
// their cluster at t1 only.
func figure2aDB(t *testing.T) *model.DB {
	return rows(t, 1,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(0, 1), geom.Pt(0, 2)},
		[]geom.Point{geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(1, 2)},
		[]geom.Point{geom.Pt(2, 0), geom.Pt(2, 1), geom.Pt(2, 2)},
		[]geom.Point{geom.Pt(3, 0), geom.Pt(30, 1), geom.Pt(30, 2)},
	)
}

// mustMC2 runs mc2 twice and fails unless both runs answer alike.
func mustMC2(t *testing.T, db *model.DB, p core.Params, theta float64) []core.Convoy {
	t.Helper()
	mc, err := mc2(db, p, theta)
	if err != nil {
		t.Fatal(err)
	}
	again, err := mc2(db, p, theta)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(mc) != fmt.Sprint(again) {
		t.Fatalf("MC2 not deterministic: %v, then %v", mc, again)
	}
	return mc
}

// TestFigure2aMC2MissesConvoy: with θ = 1, MC2 cannot discover the convoy
// {o0,o1,o2}×[1,3] because the t1→t2 overlap is only 3/4.
func TestFigure2aMC2MissesConvoy(t *testing.T) {
	db := figure2aDB(t)
	p := core.Params{M: 3, K: 3, Eps: 1.2}
	convoys := answer(db, p)
	if len(convoys) != 1 {
		t.Fatalf("oracle = %v", convoys)
	}
	rep := compareAnswers(mustMC2(t, db, p, 1.0), convoys)
	if rep.FalseNegatives != 100 {
		t.Errorf("θ=1 should miss the convoy entirely: %+v", rep)
	}
	// With θ = 0.5 the chain survives t1→t2 and the common set matches the
	// convoy — but this is luck, not a guarantee (see Figure 2(b)).
	if rep := compareAnswers(mustMC2(t, db, p, 0.5), convoys); rep.FalseNegatives != 0 {
		t.Errorf("θ=0.5 chain should cover the convoy: %+v", rep)
	}
}

// TestFigure2bMC2FalsePositive: membership drifts o0o1o2 → o1o2o3 → o2o3o0;
// with θ = 0.5 MC2 chains them into a "convoy" although no 3-object set
// stays together 3 ticks.
func TestFigure2bMC2FalsePositive(t *testing.T) {
	db := rows(t, 1,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(0, -50), geom.Pt(4, 2)}, // o0: leaves, returns
		[]geom.Point{geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(50, 2)},  // o1: leaves at t3
		[]geom.Point{geom.Pt(2, 0), geom.Pt(2, 1), geom.Pt(2, 2)},   // o2: stays
		[]geom.Point{geom.Pt(40, 0), geom.Pt(3, 1), geom.Pt(3, 2)},  // o3: joins at t2
	)
	p := core.Params{M: 3, K: 3, Eps: 1.2}
	convoys := answer(db, p)
	if len(convoys) != 0 {
		t.Fatalf("no convoy expected, oracle = %v", convoys)
	}
	mc := mustMC2(t, db, p, 0.5)
	if len(mc) == 0 {
		t.Fatal("MC2 should chain the drifting clusters")
	}
	if rep := compareAnswers(mc, convoys); rep.FalsePositives != 100 {
		t.Errorf("all MC2 answers should be false positives: %+v (mc=%v)", rep, mc)
	}
	// At least one reported chain must span all three ticks (the drift).
	spanned := false
	for _, c := range mc {
		spanned = spanned || c.Start == 1 && c.End == 3
	}
	if !spanned {
		t.Errorf("expected a chain spanning [1,3]: %v", mc)
	}
}

func TestMC2ThetaValidation(t *testing.T) {
	db := figure2aDB(t)
	p := core.Params{M: 2, K: 1, Eps: 1.2}
	if _, err := mc2(db, p, -0.1); err == nil {
		t.Error("negative θ accepted")
	}
	if _, err := mc2(db, p, 1.1); err == nil {
		t.Error("θ > 1 accepted")
	}
	if _, err := mc2(db, p, 0.7); err != nil {
		t.Errorf("valid θ rejected: %v", err)
	}
	if _, err := mc2(db, core.Params{M: 0, K: 1, Eps: 1}, 0.5); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestMC2EmptyDB(t *testing.T) {
	if mc, err := mc2(model.NewDB(), core.Params{M: 2, K: 1, Eps: 1}, 0.5); err != nil || len(mc) != 0 {
		t.Errorf("empty DB: %v, %v", mc, err)
	}
}

// TestMC2NoLifetimeConstraint: a 1-tick cluster is still reported (moving
// clusters ignore k).
func TestMC2NoLifetimeConstraint(t *testing.T) {
	db := rows(t, 0,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(0, 50)},
		[]geom.Point{geom.Pt(1, 0), geom.Pt(80, 50)},
	)
	mc := mustMC2(t, db, core.Params{M: 2, K: 100, Eps: 1.5}, 0.5)
	if len(mc) != 1 || mc[0].Start != 0 || mc[0].End != 0 {
		t.Errorf("MC2 = %v, want the single 1-tick cluster", mc)
	}
}

// TestMC2TerminatesAtMaxTick: the chain walk goes through model.TickSpan,
// so a database whose last tick is model.MaxTick does not wrap it.
func TestMC2TerminatesAtMaxTick(t *testing.T) {
	db := rows(t, model.MaxTick-2,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)},
		[]geom.Point{geom.Pt(0, 0.5), geom.Pt(1, 0.5), geom.Pt(2, 0.5)},
		[]geom.Point{geom.Pt(0, 50), geom.Pt(1, 50), geom.Pt(2, 50)})
	done := make(chan []core.Convoy, 1) // buffered: a late finisher must not block after the timeout
	go func() {
		mc, err := mc2(db, core.Params{M: 2, K: 2, Eps: 1}, 0.5)
		if err != nil {
			t.Error(err)
		}
		done <- mc
	}()
	select {
	case mc := <-done:
		want := core.Convoy{Objects: []model.ObjectID{0, 1}, Start: model.MaxTick - 2, End: model.MaxTick}
		if len(mc) != 1 || !mc[0].Equal(want) {
			t.Fatalf("MC2 = %v, want %v", mc, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("MC2 over [MaxTick-2, MaxTick] did not terminate")
	}
}

func TestJaccard(t *testing.T) {
	ids := func(xs ...model.ObjectID) []model.ObjectID { return xs }
	cases := []struct {
		a, b []model.ObjectID
		want float64
	}{
		{ids(1, 2, 3), ids(1, 2, 3), 1},
		{ids(1, 2, 3), ids(2, 3, 4), 0.5},
		{ids(1, 2), ids(3, 4), 0},
		{ids(1, 2, 3), ids(2, 3, 4, 5), 2.0 / 5},
		{nil, nil, 0},
		{ids(1), nil, 0},
	}
	for _, c := range cases {
		if got := jaccard(c.a, c.b); got != c.want {
			t.Errorf("jaccard(%v,%v) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAnswersArithmetic(t *testing.T) {
	ids := func(xs ...model.ObjectID) []model.ObjectID { return xs }
	ref := []core.Convoy{
		{Objects: ids(1, 2), Start: 0, End: 9},
		{Objects: ids(3, 4), Start: 5, End: 14},
	}
	reported := []core.Convoy{
		{Objects: ids(1, 2), Start: 0, End: 9},  // true positive
		{Objects: ids(7, 8), Start: 0, End: 3},  // false positive
		{Objects: ids(9, 10), Start: 0, End: 3}, // false positive
	}
	rep := compareAnswers(reported, ref)
	if rep.Reported != 3 || rep.Reference != 2 {
		t.Errorf("counts: %+v", rep)
	}
	if rep.FalsePositives < 66.6 || rep.FalsePositives > 66.7 {
		t.Errorf("FP = %g, want 2/3", rep.FalsePositives)
	}
	if rep.FalseNegatives != 50 {
		t.Errorf("FN = %g, want 50", rep.FalseNegatives)
	}
	if empty := compareAnswers(nil, nil); empty.FalsePositives != 0 || empty.FalseNegatives != 0 {
		t.Errorf("empty comparison: %+v", empty)
	}
}
