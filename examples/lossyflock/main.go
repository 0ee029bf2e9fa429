// Lossyflock reproduces the paper's Figure 1 motivation: a natural group in
// an elongated formation is clipped by a fixed-radius flock disc but fully
// captured by the density-based convoy query.
//
//	go run ./examples/lossyflock
package main

import (
	"fmt"
	"log"

	convoys "repro"
	"repro/internal/flock"
)

func main() {
	const ticks = 12

	// Four vehicles driving in a line formation (a platoon on a road):
	// lanes 1.1 apart, so the group spans 3.3 — wider than the flock disc.
	db := convoys.NewDB()
	for i, lane := range []float64{0, 1.1, 2.2, 3.3} {
		var samples []convoys.Sample
		for t := convoys.Tick(0); t < ticks; t++ {
			samples = append(samples, convoys.S(t, 2*float64(t), lane))
		}
		tr, err := convoys.NewTrajectory(fmt.Sprintf("o%d", i+1), samples)
		if err != nil {
			log.Fatal(err)
		}
		db.Add(tr)
	}

	// Flock query: everyone must fit in a disc of radius 1.2.
	flocks, err := flock.Discover(db, flock.Params{M: 3, K: ticks, R: 1.2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("flock query (disc radius 1.2):")
	if len(flocks) == 0 {
		fmt.Println("  no flock found")
	}
	for _, f := range flocks {
		fmt.Printf("  flock of %d: %v — object o4 is LOST (lossy-flock problem)\n",
			len(f.Objects), names(db, f.Objects))
	}

	// Convoy query: density connection with the same distance scale chains
	// the lanes together, so the whole platoon is one answer.
	result, err := convoys.Discover(db, convoys.Params{M: 3, K: ticks, Eps: 1.2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("convoy query (density connection, e = 1.2):")
	for _, c := range result {
		fmt.Printf("  convoy of %d: %v — the whole group, arbitrary extent\n",
			c.Size(), names(db, c.Objects))
	}
}

func names(db *convoys.DB, ids []convoys.ObjectID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = db.Traj(id).Label
	}
	return out
}
