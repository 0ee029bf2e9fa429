package expr

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/simplify"
)

// deltaSweep returns the δ values for the Figure 15/16 sweeps: fractions
// and multiples of the profile's tuned δ, mirroring the paper's absolute
// sweep ranges.
func deltaSweep(prof datagen.Profile) []float64 {
	base := prof.Delta
	if base <= 0 {
		base = prof.Eps / 2
	}
	return []float64{base * 0.25, base * 0.5, base, base * 1.5, base * 2}
}

// lambdaSweep returns the λ values for the Figure 17 sweep.
func lambdaSweep(prof datagen.Profile) []int64 {
	base := prof.Lambda
	if base < 1 {
		base = 4
	}
	out := []int64{}
	for _, f := range []float64{0.5, 1, 2, 4} {
		v := int64(float64(base) * f)
		if v < 1 {
			v = 1
		}
		out = append(out, v)
	}
	// Dedup while preserving order (small bases collapse).
	seen := map[int64]bool{}
	uniq := out[:0]
	for _, v := range out {
		if !seen[v] {
			seen[v] = true
			uniq = append(uniq, v)
		}
	}
	return uniq
}

// Figure15 compares the three simplification methods on the Cattle profile
// (the paper's choice: tiny N, enormous T): vertex reduction (a) and
// simplification time (b) across the δ sweep.
func Figure15(o Options) error {
	var cattle *datagen.Profile
	for _, prof := range o.profiles() {
		if prof.Name == "Cattle" {
			p := prof
			cattle = &p
			break
		}
	}
	if cattle == nil {
		p := datagen.Cattle(o.Scale, o.Seed)
		cattle = &p
	}
	db := cattle.Generate()
	w := tab(o)
	fmt.Fprintln(w, "Figure 15: trajectory simplification methods (Cattle)")
	fmt.Fprintln(w, "δ\tmethod\treduction%\ttime (ms)")
	for _, delta := range deltaSweep(*cattle) {
		for _, m := range []simplify.Method{simplify.DP, simplify.DPPlus, simplify.DPStar} {
			t0 := time.Now()
			sts := simplify.SimplifyAll(db, delta, m)
			elapsed := time.Since(t0)
			kept, total := 0, 0
			for _, st := range sts {
				kept += st.Len()
				total += st.Orig.Len()
			}
			red := 0.0
			if total > 0 {
				red = (1 - float64(kept)/float64(total)) * 100
			}
			fmt.Fprintf(w, "%.1f\t%v\t%.1f\t%s\n", delta, m, red, ms(elapsed))
			o.record(Record{Exp: "fig15", Dataset: cattle.Name, Method: m.String(),
				Param: "delta", Value: delta,
				Metrics: map[string]float64{
					"reduction_pct": red,
					"time_ms":       msf(elapsed),
				}})
		}
	}
	return w.Flush()
}

// figureSweepDelta runs the Figure 16 body for one dataset: refinement
// units and elapsed time of the CuTS family across the δ sweep.
func figureSweepDelta(o Options, prof datagen.Profile) error {
	db := prof.Generate()
	p := params(prof)
	w := tab(o)
	fmt.Fprintf(w, "Figure 16 (%s): effect of simplification tolerance δ\n", prof.Name)
	fmt.Fprintln(w, "δ\tmethod\trefinement units\tcandidates\ttime (ms)")
	for _, delta := range deltaSweep(prof) {
		for _, variant := range []core.Variant{core.VariantCuTS, core.VariantCuTSPlus, core.VariantCuTSStar} {
			var st core.Stats
			_, err := core.NewQuery(core.WithParams(p), core.WithVariant(variant), core.WithDelta(delta), core.WithLambda(prof.Lambda), core.WithWorkers(o.Workers), core.WithStats(&st)).
				Run(context.Background(), db)
			if err != nil {
				return fmt.Errorf("expr: Figure16 %s %v: %w", prof.Name, variant, err)
			}
			fmt.Fprintf(w, "%.1f\t%v\t%.0f\t%d\t%s\n",
				delta, variant, st.RefineUnits, st.NumCandidates, ms(st.TotalTime()))
			o.record(Record{Exp: "fig16", Dataset: prof.Name, Method: variant.String(),
				Param: "delta", Value: delta,
				Metrics: map[string]float64{
					"refine_units": st.RefineUnits,
					"candidates":   float64(st.NumCandidates),
					"time_ms":      msf(st.TotalTime()),
				}})
		}
	}
	return w.Flush()
}

// Figure16 sweeps δ on the Car and Taxi profiles (the paper's pair).
func Figure16(o Options) error {
	for _, prof := range o.profiles() {
		if prof.Name == "Car" || prof.Name == "Taxi" {
			if err := figureSweepDelta(o, prof); err != nil {
				return err
			}
		}
	}
	return nil
}

// figureSweepLambda runs the Figure 17 body for one dataset: refinement
// units and elapsed time across the λ sweep.
func figureSweepLambda(o Options, prof datagen.Profile) error {
	db := prof.Generate()
	p := params(prof)
	w := tab(o)
	fmt.Fprintf(w, "Figure 17 (%s): effect of time-partition length λ\n", prof.Name)
	fmt.Fprintln(w, "λ\tmethod\trefinement units\tcandidates\ttime (ms)")
	for _, lambda := range lambdaSweep(prof) {
		for _, variant := range []core.Variant{core.VariantCuTS, core.VariantCuTSPlus, core.VariantCuTSStar} {
			var st core.Stats
			_, err := core.NewQuery(core.WithParams(p), core.WithVariant(variant), core.WithDelta(prof.Delta), core.WithLambda(lambda), core.WithWorkers(o.Workers), core.WithStats(&st)).
				Run(context.Background(), db)
			if err != nil {
				return fmt.Errorf("expr: Figure17 %s %v: %w", prof.Name, variant, err)
			}
			fmt.Fprintf(w, "%d\t%v\t%.0f\t%d\t%s\n",
				lambda, variant, st.RefineUnits, st.NumCandidates, ms(st.TotalTime()))
			o.record(Record{Exp: "fig17", Dataset: prof.Name, Method: variant.String(),
				Param: "lambda", Value: float64(lambda),
				Metrics: map[string]float64{
					"refine_units": st.RefineUnits,
					"candidates":   float64(st.NumCandidates),
					"time_ms":      msf(st.TotalTime()),
				}})
		}
	}
	return w.Flush()
}

// Figure17 sweeps λ on the Truck and Cattle profiles (the paper's pair).
func Figure17(o Options) error {
	for _, prof := range o.profiles() {
		if prof.Name == "Truck" || prof.Name == "Cattle" {
			if err := figureSweepLambda(o, prof); err != nil {
				return err
			}
		}
	}
	return nil
}

// Figure19 runs the appendix accuracy study: MC2's false-positive and
// false-negative percentages against the exact convoy answer across θ.
func Figure19(o Options) error {
	w := tab(o)
	fmt.Fprintln(w, "Figure 19: discovery quality of MC2 for convoys")
	fmt.Fprintln(w, "dataset\tθ\treported\treference\tfalse pos%\tfalse neg%")
	for _, prof := range o.profiles() {
		db := prof.Generate()
		p := params(prof)
		ref, err := core.NewQuery(core.WithParams(p), core.WithCMC(), core.WithWorkers(o.Workers)).Run(context.Background(), db)
		if err != nil {
			return fmt.Errorf("expr: Figure19 %s: %w", prof.Name, err)
		}
		for _, theta := range []float64{0.4, 0.6, 0.8, 1.0} {
			mc, err := core.MC2(db, p, theta)
			if err != nil {
				return fmt.Errorf("expr: Figure19 %s θ=%g: %w", prof.Name, theta, err)
			}
			rep := core.CompareAnswers(mc, ref)
			fmt.Fprintf(w, "%s\t%.1f\t%d\t%d\t%.1f\t%.1f\n",
				prof.Name, theta, rep.Reported, rep.Reference, rep.FalsePositives, rep.FalseNegatives)
			o.record(Record{Exp: "fig19", Dataset: prof.Name, Method: "MC2",
				Param: "theta", Value: theta,
				Metrics: map[string]float64{
					"reported":      float64(rep.Reported),
					"reference":     float64(rep.Reference),
					"false_pos_pct": rep.FalsePositives,
					"false_neg_pct": rep.FalseNegatives,
				}})
		}
	}
	return w.Flush()
}

// Experiments maps experiment identifiers to runners, in paper order.
var Experiments = []struct {
	ID   string
	Desc string
	Run  func(Options) error
}{
	{"table3", "dataset statistics and settings", Table3},
	{"fig12", "CMC vs CuTS family total time", Figure12},
	{"fig13", "phase cost breakdown", Figure13},
	{"fig14", "global vs actual tolerance", Figure14},
	{"fig15", "simplification method comparison", Figure15},
	{"fig16", "effect of δ (Car, Taxi)", Figure16},
	{"fig17", "effect of λ (Truck, Cattle)", Figure17},
	{"fig19", "MC2 accuracy for convoys", Figure19},
}

// RunAll executes every experiment in paper order.
func RunAll(o Options) error {
	for _, e := range Experiments {
		if err := e.Run(o); err != nil {
			return err
		}
		fmt.Fprintln(o.out())
	}
	return nil
}

// Lookup returns the runner for an experiment id.
func Lookup(id string) (func(Options) error, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}
