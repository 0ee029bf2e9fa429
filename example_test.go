package convoys_test

import (
	"context"
	"fmt"

	convoys "repro"
)

// Two scooters ride together for eight ticks, a third rides alone.
func ExampleDiscover() {
	db := convoys.NewDB()
	for i, y := range []float64{0, 0.4, 99} {
		var samples []convoys.Sample
		for t := convoys.Tick(0); t < 8; t++ {
			samples = append(samples, convoys.S(t, float64(t), y))
		}
		tr, _ := convoys.NewTrajectory(fmt.Sprintf("scooter-%d", i+1), samples)
		db.Add(tr)
	}
	result, _ := convoys.Discover(db, convoys.Params{M: 2, K: 5, Eps: 1})
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

func ExampleCMC() {
	db := convoys.NewDB()
	a, _ := convoys.NewTrajectory("a", []convoys.Sample{
		convoys.S(0, 0, 0), convoys.S(1, 1, 0), convoys.S(2, 2, 0),
	})
	b, _ := convoys.NewTrajectory("b", []convoys.Sample{
		convoys.S(0, 0, 0.5), convoys.S(1, 1, 0.5), convoys.S(2, 2, 0.5),
	})
	db.Add(a)
	db.Add(b)
	result, _ := convoys.CMC(db, convoys.Params{M: 2, K: 3, Eps: 1})
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

func ExampleSimplify() {
	tr, _ := convoys.NewTrajectory("t", []convoys.Sample{
		convoys.S(0, 0, 0), convoys.S(1, 1, 0.05), convoys.S(2, 2, 0), convoys.S(3, 3, 2), convoys.S(4, 4, 0),
	})
	st := convoys.Simplify(tr, 2.5, convoys.DP)
	fmt.Println("kept", st.Len(), "of", tr.Len(), "points")
	// Output:
	// kept 2 of 5 points
}
