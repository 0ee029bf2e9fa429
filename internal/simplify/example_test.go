package simplify_test

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/simplify"
)

func ExampleSimplify() {
	var samples []model.Sample
	for t, y := range []float64{0, 0.05, 0, 2, 0} {
		samples = append(samples, model.Sample{T: model.Tick(t), P: geom.Pt(float64(t), y)})
	}
	tr, _ := model.NewTrajectory("t", samples)
	st := simplify.Simplify(tr, 2.5, simplify.DP)
	fmt.Println("kept", st.Len(), "of", tr.Len(), "points")
	// Output:
	// kept 2 of 5 points
}
