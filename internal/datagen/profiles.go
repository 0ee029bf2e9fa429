package datagen

import (
	"math/rand"

	"repro/internal/model"
)

// Profile bundles a dataset scenario with the convoy-query parameters the
// paper used for it (Table 3). The four constructors emulate the paper's
// datasets at a configurable scale: scale multiplies the time-domain length
// (and group windows) while keeping the object count and spatial parameters,
// so the relative cost structure of the experiments is preserved.
type Profile struct {
	// Name is the paper's dataset name.
	Name string
	// Scenario generates the data (call Generate).
	Scenario Scenario
	// M, K, Eps are the convoy query parameters of Table 3 (K scaled).
	M   int
	K   int64
	Eps float64
	// Delta and Lambda are Table 3's tuned internal parameters, rescaled;
	// pass them to the CuTS family or use 0 to engage the automatic
	// guidelines.
	Delta  float64
	Lambda int64
}

// Generate builds the profile's database.
func (p Profile) Generate() *model.DB { return p.Scenario.Generate() }

// scaleTicks scales a tick quantity with a floor of 1.
func scaleTicks(v int64, scale float64) int64 {
	s := int64(float64(v) * scale)
	if s < 1 {
		return 1
	}
	return s
}

// groupWindows plants n group windows of the given length uniformly over
// [0, T), deterministically in seed.
func groupWindows(seed int64, n int, T, window int64, size func(r *rand.Rand) int, spacing float64) []GroupSpec {
	r := rand.New(rand.NewSource(seed))
	specs := make([]GroupSpec, 0, n)
	for i := 0; i < n; i++ {
		w := window + r.Int63n(window/2+1)
		if w >= T {
			w = T
		}
		var start int64
		if T > w {
			start = r.Int63n(T - w + 1)
		}
		specs = append(specs, GroupSpec{
			Size:    size(r),
			Start:   model.Tick(start),
			End:     model.Tick(start + w - 1),
			Spacing: spacing,
		})
	}
	return specs
}

// Truck emulates the Athens concrete-truck dataset: 276 objects over a
// T ≈ 10586 domain, short dense trajectories, many convoys along shared
// routes (the paper found 91 with m=3, k=180, e=8).
func Truck(scale float64, seed int64) Profile {
	T := scaleTicks(10586, scale)
	k := scaleTicks(180, scale)
	window := scaleTicks(400, scale)
	if window < k+2 {
		window = k + 2
	}
	groups := groupWindows(seed+1, 60, T, window,
		func(r *rand.Rand) int { return 3 + r.Intn(3) }, 4.0)
	nGrouped := 0
	for _, g := range groups {
		nGrouped += g.Size
	}
	bg := 276 - nGrouped
	if bg < 0 {
		bg = 0
	}
	return Profile{
		Name: "Truck",
		Scenario: Scenario{
			Seed:       seed,
			T:          T,
			World:      1000,
			Speed:      3,
			Groups:     groups,
			Background: bg,
			KeepProb:   1,
			SpanFrac:   [2]float64{0.015, 0.05},
			Jitter:     1.5,
			Curvature:  0.08,
		},
		M: 3, K: k, Eps: 8,
		Delta: 5.9, Lambda: 4,
	}
}

// Cattle emulates the CSIRO virtual-fencing herd: 13 objects whose
// trajectories span the whole (very long) time domain — the dataset that
// makes simplification cost dominate (Figures 13, 15, 17). The paper found
// 47 convoys with m=2, k=180, e=300.
func Cattle(scale float64, seed int64) Profile {
	T := scaleTicks(175636, scale)
	k := scaleTicks(180, scale)
	window := scaleTicks(2000, scale)
	if window < k+2 {
		window = k + 2
	}
	// Sub-herd windows appear repeatedly along the long history.
	nWindows := int(T / (window * 2))
	if nWindows < 4 {
		nWindows = 4
	}
	groups := groupWindows(seed+1, nWindows, T, window,
		func(r *rand.Rand) int { return 2 + r.Intn(2) }, 120)
	// Cap the grouped-object budget so the total object count stays at 13;
	// the real herd regroups over time, but each synthetic group member is
	// a distinct object, so unlimited windows would inflate N.
	capped := groups[:0]
	total := 0
	for _, g := range groups {
		if total+g.Size > 11 {
			break
		}
		total += g.Size
		capped = append(capped, g)
	}
	return Profile{
		Name: "Cattle",
		Scenario: Scenario{
			Seed:                 seed,
			T:                    T,
			World:                15000,
			Speed:                3,
			Groups:               capped,
			Background:           13 - total,
			KeepProb:             1,
			SpanFrac:             [2]float64{1, 1},
			Jitter:               40,
			Curvature:            0.12,
			GroupMembersFullSpan: true,
		},
		M: 2, K: k, Eps: 300,
		Delta: 274.2, Lambda: 36,
	}
}

// Car emulates the Copenhagen private-car dataset: 183 objects with highly
// variable trajectory lengths (the paper found 15 convoys with m=3, k=180,
// e=80).
func Car(scale float64, seed int64) Profile {
	T := scaleTicks(8757, scale)
	k := scaleTicks(180, scale)
	window := scaleTicks(500, scale)
	if window < k+2 {
		window = k + 2
	}
	groups := groupWindows(seed+1, 8, T, window,
		func(r *rand.Rand) int { return 3 + r.Intn(2) }, 30)
	nGrouped := 0
	for _, g := range groups {
		nGrouped += g.Size
	}
	bg := 183 - nGrouped
	if bg < 0 {
		bg = 0
	}
	return Profile{
		Name: "Car",
		Scenario: Scenario{
			Seed:       seed,
			T:          T,
			World:      4000,
			Speed:      8,
			Groups:     groups,
			Background: bg,
			KeepProb:   0.95,
			SpanFrac:   [2]float64{0.01, 0.6},
			Jitter:     15,
			Curvature:  0.1,
		},
		M: 3, K: k, Eps: 80,
		Delta: 63.4, Lambda: 24,
	}
}

// Taxi emulates the Beijing taxi logs: 500 objects over a short domain with
// heavily irregular sampling and near-uniform spread — clustering dominates
// and few convoys exist (the paper found 4 with m=3, k=180, e=40).
func Taxi(scale float64, seed int64) Profile {
	T := scaleTicks(965, scale)
	k := scaleTicks(180, scale)
	window := scaleTicks(400, scale)
	if window < k+2 {
		window = k + 2
	}
	groups := groupWindows(seed+1, 2, T, window,
		func(r *rand.Rand) int { return 3 }, 15)
	nGrouped := 0
	for _, g := range groups {
		nGrouped += g.Size
	}
	return Profile{
		Name: "Taxi",
		Scenario: Scenario{
			Seed:       seed,
			T:          T,
			World:      6000,
			Speed:      12,
			Groups:     groups,
			Background: 500 - nGrouped,
			KeepProb:   0.35,
			SpanFrac:   [2]float64{0.3, 0.9},
			Jitter:     8,
			Curvature:  0.06,
		},
		M: 3, K: k, Eps: 40,
		Delta: 31.5, Lambda: 4,
	}
}

// Contact is a synthetic close-encounter world for the proximity-graph
// backend: a small campus-scale area where planted groups brush shoulders
// constantly and background objects wander through. It is not one of the
// paper's datasets — thresholding pairwise distance at Eps turns each tick
// into a contact graph (see proxgraph.FromDB), which puts the DBSCAN and
// graph-connectivity backends on equal footing.
func Contact(scale float64, seed int64) Profile {
	T := scaleTicks(2000, scale)
	k := scaleTicks(60, scale)
	window := scaleTicks(300, scale)
	if window < k+2 {
		window = k + 2
	}
	groups := groupWindows(seed+1, 10, T, window,
		func(r *rand.Rand) int { return 2 + r.Intn(3) }, 1.2)
	nGrouped := 0
	for _, g := range groups {
		nGrouped += g.Size
	}
	bg := 60 - nGrouped
	if bg < 0 {
		bg = 0
	}
	return Profile{
		Name: "Contact",
		Scenario: Scenario{
			Seed:       seed,
			T:          T,
			World:      200,
			Speed:      1.5,
			Groups:     groups,
			Background: bg,
			KeepProb:   1,
			SpanFrac:   [2]float64{0.2, 0.8},
			Jitter:     0.5,
			Curvature:  0.1,
		},
		M: 2, K: k, Eps: 3,
	}
}

// Commute is a low-churn world built for the incremental clustering fast
// path: a persistent population of ~300 objects where only about 10% move
// between consecutive ticks (commuters parked at home or the office, a few
// in transit). It is not one of the paper's datasets and stays out of
// AllProfiles; bench/ladder's feed-commute and history-commute workloads
// replay it.
func Commute(scale float64, seed int64) Profile {
	return CommuteChurn(scale, seed, 0.1)
}

// CommuteChurn is Commute with an explicit per-tick move probability, so
// churn can be swept from near-frozen to every-object-every-tick on an
// otherwise identical world. Jitter is zero
// on purpose: a parked object reports a bit-identical position, which is
// what lets the incremental engine skip its neighborhood entirely.
func CommuteChurn(scale float64, seed int64, churn float64) Profile {
	T := scaleTicks(3000, scale)
	k := scaleTicks(120, scale)
	window := scaleTicks(600, scale)
	if window < k+2 {
		window = k + 2
	}
	groups := groupWindows(seed+1, 12, T, window,
		func(r *rand.Rand) int { return 3 + r.Intn(3) }, 4.0)
	nGrouped := 0
	for _, g := range groups {
		nGrouped += g.Size
	}
	bg := 300 - nGrouped
	if bg < 0 {
		bg = 0
	}
	return Profile{
		Name: "Commute",
		Scenario: Scenario{
			Seed:       seed,
			T:          T,
			World:      2000,
			Speed:      6,
			Groups:     groups,
			Background: bg,
			KeepProb:   1,
			SpanFrac:   [2]float64{0.8, 1},
			Jitter:     0,
			Curvature:  0.08,
			MoveProb:   churn,
		},
		M: 3, K: k, Eps: 10,
	}
}

// AllProfiles returns the four dataset profiles at the given scale.
func AllProfiles(scale float64, seed int64) []Profile {
	return []Profile{
		Truck(scale, seed),
		Cattle(scale, seed+100),
		Car(scale, seed+200),
		Taxi(scale, seed+300),
	}
}
