package datagen

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
)

func TestScenarioDeterministic(t *testing.T) {
	sc := Scenario{
		Seed: 42, T: 50, World: 100, Speed: 2,
		Groups:     []GroupSpec{{Size: 3, Start: 5, End: 30, Spacing: 1}},
		Background: 4,
		KeepProb:   0.8,
		SpanFrac:   [2]float64{0.2, 0.9},
		Jitter:     0.1,
	}
	a, b := sc.Generate(), sc.Generate()
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for id := 0; id < a.Len(); id++ {
		ta, tb := a.Traj(id), b.Traj(id)
		if ta.Label != tb.Label || ta.Len() != tb.Len() {
			t.Fatalf("object %d differs", id)
		}
		for i := range ta.Samples {
			if ta.Samples[i] != tb.Samples[i] {
				t.Fatalf("object %d sample %d differs", id, i)
			}
		}
	}
	// A different seed produces different data.
	sc.Seed = 43
	c := sc.Generate()
	same := true
	for id := 0; id < a.Len() && same; id++ {
		if a.Traj(id).Len() != c.Traj(id).Len() {
			same = false
			break
		}
		for i := range a.Traj(id).Samples {
			if a.Traj(id).Samples[i] != c.Traj(id).Samples[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestScenarioObjectCountsAndSpans(t *testing.T) {
	sc := Scenario{
		Seed: 7, T: 100, World: 200, Speed: 3,
		Groups:     []GroupSpec{{Size: 4, Start: 10, End: 60, Spacing: 2}, {Size: 2, Start: 0, End: 99, Spacing: 2}},
		Background: 5,
		KeepProb:   1,
		SpanFrac:   [2]float64{1, 1},
	}
	db := sc.Generate()
	if db.Len() != 4+2+5 {
		t.Fatalf("object count = %d", db.Len())
	}
	// Group members span exactly their window.
	g0, ok := db.ByLabel("g0-0")
	if !ok {
		t.Fatal("g0-0 missing")
	}
	if g0.Start() != 10 || g0.End() != 60 {
		t.Errorf("group member span = [%d,%d]", g0.Start(), g0.End())
	}
	// Background objects with SpanFrac {1,1} cover the whole domain.
	bg, ok := db.ByLabel("bg0")
	if !ok {
		t.Fatal("bg0 missing")
	}
	if bg.Start() != 0 || bg.End() != 99 {
		t.Errorf("background span = [%d,%d]", bg.Start(), bg.End())
	}
	lo, hi, _ := db.TimeRange()
	if lo != 0 || hi != 99 {
		t.Errorf("time range = [%d,%d]", lo, hi)
	}
}

func TestScenarioIrregularSampling(t *testing.T) {
	sc := Scenario{
		Seed: 3, T: 200, World: 100, Speed: 1,
		Background: 10, KeepProb: 0.3, SpanFrac: [2]float64{1, 1},
	}
	db := sc.Generate()
	st := db.Stats()
	if st.MissingFraction < 0.5 || st.MissingFraction > 0.85 {
		t.Errorf("missing fraction = %g, want ≈ 0.7", st.MissingFraction)
	}
	// Endpoints always sampled.
	for _, tr := range db.Trajectories() {
		if tr.Start() != 0 || tr.End() != 199 {
			t.Errorf("endpoint sampling broken: [%d,%d]", tr.Start(), tr.End())
		}
	}
}

func TestGroupMembersStayConnected(t *testing.T) {
	spacing := 2.0
	sc := Scenario{
		Seed: 11, T: 60, World: 300, Speed: 4,
		Groups: []GroupSpec{{Size: 4, Start: 0, End: 59, Spacing: spacing}},
		Jitter: 0.2,
	}
	db := sc.Generate()
	// Consecutive chain members stay within spacing+2·jitter of each other
	// at every tick — the density-connection invariant the planted groups
	// are designed to satisfy.
	for tick := model.Tick(0); tick < 60; tick++ {
		for m := 0; m+1 < 4; m++ {
			a, _ := db.Traj(m).LocationAt(tick)
			b, _ := db.Traj(m + 1).LocationAt(tick)
			if d := geom.D(a, b); d > spacing+0.4+1e-9 {
				t.Fatalf("members %d,%d at tick %d are %g apart", m, m+1, tick, d)
			}
		}
	}
}

func TestPlantedGroupFoundAsConvoy(t *testing.T) {
	sc := Scenario{
		Seed: 19, T: 80, World: 500, Speed: 5,
		Groups:     []GroupSpec{{Size: 3, Start: 10, End: 70, Spacing: 2}},
		Background: 6,
		KeepProb:   1,
		SpanFrac:   [2]float64{0.5, 1},
		Jitter:     0.2,
	}
	db := sc.Generate()
	res, err := core.NewQuery(core.WithParams(core.Params{M: 3, K: 30, Eps: 3}), core.WithCMC()).Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res {
		if c.Contains(0) && c.Contains(1) && c.Contains(2) && c.Lifetime() >= 30 {
			found = true
		}
	}
	if !found {
		t.Errorf("planted group not discovered: %v", res)
	}
}

func TestProfilesShapeMatchesTable3(t *testing.T) {
	const scale = 0.02
	profiles := AllProfiles(scale, 1)
	if len(profiles) != 4 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	wantN := map[string]int{"Truck": 276, "Cattle": 13, "Car": 183, "Taxi": 500}
	for _, p := range profiles {
		db := p.Generate()
		n := db.Len()
		want := wantN[p.Name]
		// Group planting may shift counts slightly; stay within 10%.
		if n < want*9/10 || n > want*11/10 {
			t.Errorf("%s: N = %d, want ≈ %d", p.Name, n, want)
		}
		if err := (core.Params{M: p.M, K: p.K, Eps: p.Eps}).Validate(); err != nil {
			t.Errorf("%s: params invalid: %v", p.Name, err)
		}
		st := db.Stats()
		switch p.Name {
		case "Cattle":
			if st.NumObjects != 13 {
				t.Errorf("Cattle N = %d", st.NumObjects)
			}
			if st.MissingFraction > 0.01 {
				t.Errorf("Cattle should be regularly sampled, missing %g", st.MissingFraction)
			}
			if st.AvgDuration < float64(st.TimeDomainLength)*0.99 {
				t.Errorf("Cattle trajectories should span the domain: %+v", st)
			}
		case "Taxi":
			if st.MissingFraction < 0.4 {
				t.Errorf("Taxi should be irregularly sampled, missing %g", st.MissingFraction)
			}
		case "Truck":
			if st.AvgDuration > float64(st.TimeDomainLength)*0.2 {
				t.Errorf("Truck trajectories should be short: %+v", st)
			}
		}
	}
}

func TestProfilesScaleTicks(t *testing.T) {
	small := Truck(0.01, 1)
	big := Truck(0.1, 1)
	if small.Scenario.T >= big.Scenario.T {
		t.Errorf("scaling broken: %d vs %d", small.Scenario.T, big.Scenario.T)
	}
	if small.K >= big.K {
		t.Errorf("K scaling broken: %d vs %d", small.K, big.K)
	}
	if small.K < 1 || scaleTicks(0, 0.5) != 1 {
		t.Error("tick floor broken")
	}
}

func TestContactProfile(t *testing.T) {
	p := Contact(0.1, 1)
	if err := (core.Params{M: p.M, K: p.K, Eps: p.Eps}).Validate(); err != nil {
		t.Fatalf("params invalid: %v", err)
	}
	db := p.Generate()
	if n := db.Len(); n < 40 || n > 70 {
		t.Errorf("N = %d, want ≈ 60", n)
	}
	// Deterministic in the seed, like every profile.
	again := Contact(0.1, 1).Generate()
	if db.Len() != again.Len() {
		t.Error("contact profile not deterministic")
	}
	// The world is small enough that contacts at Eps actually happen:
	// some pair is within Eps at some tick (otherwise the derived contact
	// graph would be empty and the profile useless).
	lo, hi, ok := db.TimeRange()
	if !ok {
		t.Fatal("empty database")
	}
	found := false
	for tick := lo; tick <= hi && !found; tick++ {
		ids, pts := db.SnapshotAt(tick)
		for i := 0; i < len(ids) && !found; i++ {
			for j := i + 1; j < len(pts); j++ {
				if geom.D(pts[i], pts[j]) <= p.Eps {
					found = true
					break
				}
			}
		}
	}
	if !found {
		t.Error("no contact within Eps anywhere in the domain")
	}
}

// measuredChurn is the fraction of consecutive-tick transitions in which
// an object actually moved (any coordinate changed at all).
func measuredChurn(db *model.DB) float64 {
	var moved, transitions int
	for id := 0; id < db.Len(); id++ {
		s := db.Traj(id).Samples
		for i := 1; i < len(s); i++ {
			transitions++
			if s[i].P != s[i-1].P {
				moved++
			}
		}
	}
	if transitions == 0 {
		return 0
	}
	return float64(moved) / float64(transitions)
}

// The Commute profile's point is its churn rate: parked objects report
// bit-identical positions, so the measured per-tick move fraction tracks
// the requested one — the property the incremental clustering fast path
// and its benchmark depend on.
func TestCommuteChurnRate(t *testing.T) {
	p := Commute(0.05, 1)
	if err := (core.Params{M: p.M, K: p.K, Eps: p.Eps}).Validate(); err != nil {
		t.Fatalf("params invalid: %v", err)
	}
	db := p.Generate()
	if n := db.Len(); n < 250 || n > 350 {
		t.Errorf("N = %d, want ≈ 300", n)
	}
	if got := measuredChurn(db); got < 0.05 || got > 0.2 {
		t.Errorf("measured churn %.3f at requested 0.1, want within [0.05, 0.2]", got)
	}
	// The sweep endpoints behave: near-frozen stays near-frozen, full
	// churn moves essentially everything.
	if got := measuredChurn(CommuteChurn(0.05, 1, 0.01).Generate()); got > 0.05 {
		t.Errorf("churn 0.01: measured %.3f, want ≤ 0.05", got)
	}
	if got := measuredChurn(CommuteChurn(0.05, 1, 1).Generate()); got < 0.99 {
		t.Errorf("churn 1: measured %.3f, want ≈ 1", got)
	}
	// Deterministic in the seed, like every profile.
	if again := Commute(0.05, 1).Generate(); db.Len() != again.Len() {
		t.Error("commute profile not deterministic")
	}
}
