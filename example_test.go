package convoys_test

import (
	"context"
	"fmt"

	convoys "repro"
)

// Two scooters ride together for eight ticks, a third rides alone. The
// query runs the default algorithm, CuTS*.
func ExampleQuery_Run() {
	db := convoys.NewDB()
	for i, y := range []float64{0, 0.4, 99} {
		var samples []convoys.Sample
		for t := convoys.Tick(0); t < 8; t++ {
			samples = append(samples, convoys.S(t, float64(t), y))
		}
		tr, _ := convoys.NewTrajectory(fmt.Sprintf("scooter-%d", i+1), samples)
		db.Add(tr)
	}
	result, _ := convoys.NewQuery(convoys.M(2), convoys.K(5), convoys.Eps(1)).Run(context.Background(), db)
	for _, c := range result {
		fmt.Println(c)
	}
	// Output:
	// ⟨o0,o1,[0,7]⟩
}

// The context-first form of the same query: build it from options, run it
// under a cancellable context, and read the run's statistics.
func ExampleNewQuery() {
	db := convoys.NewDB()
	for i, y := range []float64{0, 0.4, 99} {
		var samples []convoys.Sample
		for t := convoys.Tick(0); t < 8; t++ {
			samples = append(samples, convoys.S(t, float64(t), y))
		}
		tr, _ := convoys.NewTrajectory(fmt.Sprintf("scooter-%d", i+1), samples)
		db.Add(tr)
	}
	var st convoys.Stats
	q := convoys.NewQuery(convoys.M(2), convoys.K(5), convoys.Eps(1), convoys.WithStats(&st))
	result, _ := q.Run(context.Background(), db)
	fmt.Println(result[0], "candidates:", st.NumCandidates > 0)
	// Output:
	// ⟨o0,o1,[0,7]⟩ candidates: true
}

// Seq yields convoys as they close instead of materializing the full
// result; breaking out of the loop abandons the remaining clustering work
// (so does cancelling the context — the error arrives as the final yield).
func ExampleQuery_Seq() {
	db := convoys.NewDB()
	for i, y := range []float64{0, 0.4} {
		var samples []convoys.Sample
		for t := convoys.Tick(0); t < 12; t++ {
			x, yy := float64(t), y
			if t >= 6 && i == 1 {
				yy += 500 // the pair separates at tick 6, closing the convoy
			}
			samples = append(samples, convoys.S(t, x, yy))
		}
		tr, _ := convoys.NewTrajectory("", samples)
		db.Add(tr)
	}
	q := convoys.NewQuery(convoys.M(2), convoys.K(3), convoys.Eps(1), convoys.WithCMC())
	for c, err := range q.Seq(context.Background(), db) {
		if err != nil {
			fmt.Println("aborted:", err)
			break
		}
		fmt.Println("closed:", c)
		break // stop the scan after the first answer
	}
	// Output:
	// closed: ⟨o0,o1,[0,5]⟩
}

// The Coherent Moving Cluster baseline: snapshot DBSCAN at every tick, no
// filter step — slower than CuTS*, with the same answer.
func ExampleWithCMC() {
	db := convoys.NewDB()
	a, _ := convoys.NewTrajectory("a", []convoys.Sample{
		convoys.S(0, 0, 0), convoys.S(1, 1, 0), convoys.S(2, 2, 0),
	})
	b, _ := convoys.NewTrajectory("b", []convoys.Sample{
		convoys.S(0, 0, 0.5), convoys.S(1, 1, 0.5), convoys.S(2, 2, 0.5),
	})
	db.Add(a)
	db.Add(b)
	q := convoys.NewQuery(convoys.M(2), convoys.K(3), convoys.Eps(1), convoys.WithCMC())
	result, _ := q.Run(context.Background(), db)
	fmt.Println(len(result), "convoy, lifetime", result[0].Lifetime())
	// Output:
	// 1 convoy, lifetime 3
}

func ExampleStreamer() {
	monitor, _ := convoys.NewStreamer(convoys.Params{M: 2, K: 2, Eps: 1})
	// Two objects together at ticks 0-2, apart at tick 3.
	for t := convoys.Tick(0); t < 3; t++ {
		monitor.Advance(t,
			[]convoys.ObjectID{0, 1},
			[]convoys.Point{convoys.Pt(float64(t), 0), convoys.Pt(float64(t), 0.5)})
	}
	closed, _ := monitor.Advance(3,
		[]convoys.ObjectID{0, 1},
		[]convoys.Point{convoys.Pt(3, 0), convoys.Pt(3, 50)})
	for _, c := range closed {
		fmt.Println("dissolved:", c)
	}
	// Output:
	// dissolved: ⟨o0,o1,[0,2]⟩
}

// Convoy discovery over a coordinate-free contact log: three radios hear
// each other (pairwise or transitively) for five ticks; a weak contact and
// a short trailing one don't qualify. No positions exist anywhere.
func ExampleWithClusterer() {
	log := convoys.NewProximityLog()
	for t := convoys.Tick(1); t <= 5; t++ {
		log.Add("alpha", "bravo", t, 1)
		log.Add("bravo", "charlie", t, 1)
	}
	log.Add("delta", "alpha", 1, 0.25) // below the e=1 threshold
	log.Add("alpha", "bravo", 6, 1)    // only two objects: below m=3

	db, _ := log.DB() // stand-in database carrying the log's objects
	q := convoys.NewQuery(convoys.M(3), convoys.K(3), convoys.Eps(1),
		convoys.WithCMC(), convoys.WithClusterer(log.Clusterer()))
	result, _ := q.Run(context.Background(), db)
	for _, c := range result {
		objs := make([]string, len(c.Objects))
		for i, id := range c.Objects {
			objs[i] = log.Label(id)
		}
		fmt.Println(objs, "ticks", c.Start, "to", c.End)
	}
	// Output:
	// [alpha bravo charlie] ticks 1 to 5
}

// The paper's carpooling motivation: cars that follow the same route at the
// same time could share one vehicle. On a Car-profile world (183 commuter
// cars at 1/20 of the paper's time scale) the distance threshold e shapes
// the answer: a small e finds only tight platoons, a larger one also groups
// cars on parallel lanes. Density connection has no fixed shape, so the
// count is not monotone in e.
func Example_carpool() {
	prof := convoys.CarProfile(0.05, 42)
	db := prof.Generate()
	st := db.Stats()
	fmt.Printf("dataset: %d cars, %d ticks, %d GPS points\n", st.NumObjects, st.TimeDomainLength, st.TotalPoints)
	for _, e := range []float64{prof.Eps / 2, prof.Eps, prof.Eps * 2} {
		result, _ := convoys.NewQuery(convoys.M(2), convoys.K(prof.K), convoys.Eps(e)).Run(context.Background(), db)
		fmt.Printf("e = %g: %d carpool group(s)\n", e, len(result))
		for i, c := range result {
			if i == 3 {
				fmt.Printf("  … and %d more\n", len(result)-3)
				break
			}
			fmt.Printf("  cars %v ride together for %d ticks [%d–%d], %d seat(s) saved\n",
				c.Objects, c.Lifetime(), c.Start, c.End, c.Size()-1)
		}
	}
	// Output:
	// dataset: 183 cars, 436 ticks, 20699 GPS points
	// e = 40: 6 carpool group(s)
	//   cars [0 1] ride together for 14 ticks [29–42], 1 seat(s) saved
	//   cars [23 24] ride together for 9 ticks [106–114], 1 seat(s) saved
	//   cars [86 149] ride together for 11 ticks [155–165], 1 seat(s) saved
	//   … and 3 more
	// e = 80: 53 carpool group(s)
	//   cars [65 66] ride together for 14 ticks [5–18], 1 seat(s) saved
	//   cars [0 1 2] ride together for 32 ticks [11–42], 2 seat(s) saved
	//   cars [6 7 8] ride together for 27 ticks [13–39], 2 seat(s) saved
	//   … and 50 more
	// e = 160: 141 carpool group(s)
	//   cars [65 66] ride together for 33 ticks [5–37], 1 seat(s) saved
	//   cars [0 1 2] ride together for 32 ticks [11–42], 2 seat(s) saved
	//   cars [6 7 8] ride together for 27 ticks [13–39], 2 seat(s) saved
	//   … and 138 more
}

// The paper's throughput-planning scenario: delivery trucks with coherent
// trajectories can be scheduled as one dispatch wave. All four algorithms
// answer the same; the CuTS family's statistics show the automatic δ and λ
// and how many candidates the filter handed to refinement.
func Example_truckfleet() {
	prof := convoys.TruckProfile(0.1, 7)
	db := prof.Generate()
	st := db.Stats()
	fmt.Printf("fleet: %d truck trips, %d ticks, %d GPS points\n", st.NumObjects, st.TimeDomainLength, st.TotalPoints)
	query := func(opts ...convoys.QueryOption) *convoys.Query {
		return convoys.NewQuery(append(opts, convoys.M(prof.M), convoys.K(prof.K), convoys.Eps(prof.Eps))...)
	}
	ref, _ := query(convoys.WithCMC()).Run(context.Background(), db)
	for _, v := range []convoys.Variant{convoys.CuTSVariant, convoys.CuTSPlusVariant, convoys.CuTSStarVariant} {
		var rs convoys.Stats
		res, _ := query(convoys.WithVariant(v), convoys.WithStats(&rs)).Run(context.Background(), db)
		fmt.Printf("%-5v δ=%.2f λ=%d candidates=%d, same answer as CMC: %v\n",
			v, rs.Delta, rs.Lambda, rs.NumCandidates, res.Equal(ref))
	}
	fmt.Printf("%d dispatch waves, the first three:\n", len(ref))
	for _, c := range ref[:3] {
		fmt.Printf("  %d trucks together for %d ticks [%d–%d]\n", c.Size(), c.Lifetime(), c.Start, c.End)
	}
	// Output:
	// fleet: 276 truck trips, 1043 ticks, 13224 GPS points
	// CuTS  δ=2.80 λ=2 candidates=60, same answer as CMC: true
	// CuTS+ δ=2.80 λ=2 candidates=60, same answer as CMC: true
	// CuTS* δ=2.80 λ=2 candidates=60, same answer as CMC: true
	// 60 dispatch waves, the first three:
	//   3 trucks together for 52 ticks [7–58]
	//   5 trucks together for 50 ticks [35–84]
	//   5 trucks together for 43 ticks [36–78]
}

// A cattle herd: few animals, very long 1 Hz trajectories, the shape where
// simplification pays off most. CuTS* picks δ by the §7.4 guideline (what
// each simplification method keeps at that δ is core's ExampleComputeDelta)
// and finds the sub-herds with an automatic λ.
func Example_wildlife() {
	prof := convoys.CattleProfile(0.05, 11)
	db := prof.Generate()
	st := db.Stats()
	fmt.Printf("herd: %d animals, %d ticks, %d points\n", st.NumObjects, st.TimeDomainLength, st.TotalPoints)
	var rs convoys.Stats
	res, _ := convoys.NewQuery(convoys.M(prof.M), convoys.K(prof.K), convoys.Eps(prof.Eps), convoys.WithStats(&rs)).
		Run(context.Background(), db)
	fmt.Printf("m=%d k=%d e=%g, automatic δ=%.1f λ=%d: %d sub-herd convoys, the first three:\n",
		prof.M, prof.K, prof.Eps, rs.Delta, rs.Lambda, len(res))
	for _, c := range res[:3] {
		fmt.Printf("  animals %v grazed together for %d ticks [%d–%d]\n", c.Objects, c.Lifetime(), c.Start, c.End)
	}
	// Output:
	// herd: 13 animals, 8781 ticks, 114153 points
	// m=2 k=9 e=300, automatic δ=204.6 λ=9: 30 sub-herd convoys, the first three:
	//   animals [8 9] grazed together for 145 ticks [875–1019]
	//   animals [0 1] grazed together for 222 ticks [918–1139]
	//   animals [5 6] grazed together for 115 ticks [2117–2231]
}

// Figure 1's lossy-flock problem, from the convoy side: four vehicles drive
// in a line formation with lanes 1.1 apart, so the platoon is 3.3 wide and
// no disc of radius 1.2 covers it. Density connection at e = 1.2 chains the
// lanes together, and the whole platoon is one convoy.
func Example_platoon() {
	db := convoys.NewDB()
	for i, lane := range []float64{0, 1.1, 2.2, 3.3} {
		var samples []convoys.Sample
		for t := convoys.Tick(0); t < 12; t++ {
			samples = append(samples, convoys.S(t, 2*float64(t), lane))
		}
		tr, _ := convoys.NewTrajectory(fmt.Sprintf("van%d", i+1), samples)
		db.Add(tr)
	}
	result, _ := convoys.NewQuery(convoys.M(3), convoys.K(12), convoys.Eps(1.2)).Run(context.Background(), db)
	for _, c := range result {
		names := make([]string, c.Size())
		for i, id := range c.Objects {
			names[i] = db.Traj(id).Label
		}
		fmt.Println(names, "for", c.Lifetime(), "ticks")
	}
	// Output:
	// [van1 van2 van3 van4] for 12 ticks
}
