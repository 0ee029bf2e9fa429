// Package expr is the paper's experiment harness: eight runners, one per
// evaluation table and figure of the paper (Table 3, Figures 12–17,
// Figure 19). Each runner regenerates the corresponding rows/series on the
// synthetic dataset profiles and prints a paper-style text table.
//
// Absolute numbers differ from the paper (different hardware, language and
// — necessarily — synthetic data); the point of the harness is the *shape*
// of each result: which method wins, by roughly what factor, and how the
// curves move with δ, λ and θ. README's "Command-line tools" section shows
// how to regenerate them with benchrunner. How fast the system itself is —
// the daemon, feeds, WAL, shards — is measured in one place only,
// bench/ladder.
package expr

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dbscan"
)

// Options configure a harness run.
type Options struct {
	// Scale multiplies the time-domain length of every dataset profile
	// (1 = the paper's full size; benchmarks use ~0.02–0.1).
	Scale float64
	// Seed drives the deterministic data generation.
	Seed int64
	// Out receives the printed tables.
	Out io.Writer
	// Profiles overrides the default four Table 3 profiles when non-nil.
	Profiles []datagen.Profile
	// Workers is the per-stage worker count every experiment's discovery
	// runs use (≤ 1 = serial).
	Workers int
	// Record, when non-nil, receives one machine-readable measurement per
	// printed table row (benchrunner -json writes these to BENCH files).
	Record func(Record)
}

// Record is one measurement row of an experiment, the machine-readable
// twin of a printed table line. Metrics keys are experiment-specific
// (time_ms, candidates, refine_units, …).
type Record struct {
	Exp     string `json:"exp"`
	Dataset string `json:"dataset,omitempty"`
	Method  string `json:"method,omitempty"`
	// Param/Value name the swept parameter of sweep experiments
	// (delta, lambda, theta).
	Param   string             `json:"param,omitempty"`
	Value   float64            `json:"value,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

// BenchFile is the schema of the BENCH_<exp>.json measurement files
// benchrunner -json writes: one experiment's Records tagged with the
// options that produced them.
type BenchFile struct {
	Exp     string   `json:"exp"`
	Scale   float64  `json:"scale"`
	Seed    int64    `json:"seed"`
	Workers int      `json:"workers,omitempty"`
	Records []Record `json:"records"`
}

// record forwards a measurement to the recorder, if any.
func (o Options) record(r Record) {
	if o.Record != nil {
		o.Record(r)
	}
}

// msf converts a duration to fractional milliseconds for Record metrics.
func msf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func (o Options) profiles() []datagen.Profile {
	if o.Profiles != nil {
		return o.Profiles
	}
	return datagen.AllProfiles(o.Scale, o.Seed)
}

func (o Options) out() io.Writer {
	if o.Out != nil {
		return o.Out
	}
	return io.Discard
}

// params extracts the convoy query parameters of a profile.
func params(p datagen.Profile) core.Params {
	return core.Params{M: p.M, K: p.K, Eps: p.Eps}
}

// tab starts a tabwriter over the options' output.
func tab(o Options) *tabwriter.Writer {
	return tabwriter.NewWriter(o.out(), 2, 4, 2, ' ', 0)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000.0)
}

// Table3 prints the dataset statistics, the parameter settings (paper
// values rescaled next to the guideline-derived values), and the number of
// convoys CuTS* discovers — the reproduction of Table 3.
func Table3(o Options) error {
	w := tab(o)
	fmt.Fprintln(w, "Table 3: dataset statistics and experiment settings")
	fmt.Fprintln(w, "dataset\tN\tT\tavg len\tpoints\tmissing%\tm\tk\te\tδ(table)\tδ(auto)\tλ(table)\tλ(auto)\tconvoys")
	for _, prof := range o.profiles() {
		db := prof.Generate()
		st := db.Stats()
		p := params(prof)
		var runStats core.Stats
		res, err := core.NewQuery(core.WithParams(p), core.WithWorkers(o.Workers), core.WithStats(&runStats)).
			Run(context.Background(), db)
		if err != nil {
			return fmt.Errorf("expr: Table3 %s: %w", prof.Name, err)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%d\t%.0f\t%d\t%d\t%g\t%.1f\t%.2f\t%d\t%d\t%d\n",
			prof.Name, st.NumObjects, st.TimeDomainLength, st.AvgTrajLen, st.TotalPoints,
			st.MissingFraction*100, p.M, p.K, p.Eps,
			prof.Delta, runStats.Delta, prof.Lambda, runStats.Lambda, len(res))
		o.record(Record{Exp: "table3", Dataset: prof.Name, Metrics: map[string]float64{
			"objects":     float64(st.NumObjects),
			"time_domain": float64(st.TimeDomainLength),
			"points":      float64(st.TotalPoints),
			"missing_pct": st.MissingFraction * 100,
			"delta_auto":  runStats.Delta,
			"lambda_auto": float64(runStats.Lambda),
			"convoys":     float64(len(res)),
		}})
	}
	return w.Flush()
}

// Figure12 prints total query-processing time of CMC versus the CuTS
// family on every dataset.
func Figure12(o Options) error {
	w := tab(o)
	fmt.Fprintln(w, "Figure 12: query processing time (ms)")
	fmt.Fprintln(w, "dataset\tCMC\tCuTS\tCuTS+\tCuTS*\tbest speedup")
	for _, prof := range o.profiles() {
		db := prof.Generate()
		p := params(prof)
		t0 := time.Now()
		ref, err := core.NewQuery(core.WithParams(p), core.WithCMC(), core.WithWorkers(o.Workers)).Run(context.Background(), db)
		cmcTime := time.Since(t0)
		if err != nil {
			return fmt.Errorf("expr: Figure12 %s: %w", prof.Name, err)
		}
		o.record(Record{Exp: "fig12", Dataset: prof.Name, Method: "CMC",
			Metrics: map[string]float64{"time_ms": msf(cmcTime)}})
		var times [3]time.Duration
		for i, variant := range []core.Variant{core.VariantCuTS, core.VariantCuTSPlus, core.VariantCuTSStar} {
			var st core.Stats
			res, err := core.NewQuery(core.WithParams(p), core.WithVariant(variant), core.WithWorkers(o.Workers), core.WithStats(&st)).
				Run(context.Background(), db)
			if err != nil {
				return fmt.Errorf("expr: Figure12 %s %v: %w", prof.Name, variant, err)
			}
			if !res.Equal(ref) {
				return fmt.Errorf("expr: Figure12 %s: %v answer differs from CMC", prof.Name, variant)
			}
			times[i] = st.TotalTime()
			o.record(Record{Exp: "fig12", Dataset: prof.Name, Method: variant.String(),
				Metrics: map[string]float64{"time_ms": msf(times[i])}})
		}
		best := times[0]
		for _, t := range times[1:] {
			if t < best {
				best = t
			}
		}
		speedup := float64(cmcTime) / float64(best)
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%.1fx\n",
			prof.Name, ms(cmcTime), ms(times[0]), ms(times[1]), ms(times[2]), speedup)
	}
	return w.Flush()
}

// Figure13 prints the per-phase cost breakdown (simplification / filter /
// refinement) of the CuTS family on every dataset (the paper magnifies
// Cattle and Taxi).
func Figure13(o Options) error {
	w := tab(o)
	fmt.Fprintln(w, "Figure 13: query processing cost breakdown (ms)")
	fmt.Fprintln(w, "dataset\tmethod\tsimplify\tfilter\trefine\ttotal")
	for _, prof := range o.profiles() {
		db := prof.Generate()
		p := params(prof)
		for _, variant := range []core.Variant{core.VariantCuTS, core.VariantCuTSPlus, core.VariantCuTSStar} {
			var st core.Stats
			_, err := core.NewQuery(core.WithParams(p), core.WithVariant(variant), core.WithWorkers(o.Workers), core.WithStats(&st)).
				Run(context.Background(), db)
			if err != nil {
				return fmt.Errorf("expr: Figure13 %s %v: %w", prof.Name, variant, err)
			}
			fmt.Fprintf(w, "%s\t%v\t%s\t%s\t%s\t%s\n",
				prof.Name, variant, ms(st.SimplifyTime), ms(st.FilterTime), ms(st.RefineTime), ms(st.TotalTime()))
			o.record(Record{Exp: "fig13", Dataset: prof.Name, Method: variant.String(),
				Metrics: map[string]float64{
					"simplify_ms": msf(st.SimplifyTime),
					"filter_ms":   msf(st.FilterTime),
					"refine_ms":   msf(st.RefineTime),
					"total_ms":    msf(st.TotalTime()),
				}})
		}
	}
	return w.Flush()
}

// Figure14 compares the filter under global versus actual tolerances for
// CuTS*: candidate counts (a) and elapsed time (b).
func Figure14(o Options) error {
	w := tab(o)
	fmt.Fprintln(w, "Figure 14: effect of actual tolerance (CuTS*)")
	fmt.Fprintln(w, "dataset\tcand(global)\tcand(actual)\ttime global (ms)\ttime actual (ms)")
	for _, prof := range o.profiles() {
		db := prof.Generate()
		p := params(prof)
		var cands [2]int
		var times [2]time.Duration
		for i, tol := range []dbscan.ToleranceMode{dbscan.GlobalTolerance, dbscan.ActualTolerance} {
			var st core.Stats
			_, err := core.NewQuery(core.WithParams(p), core.WithTolerance(tol), core.WithWorkers(o.Workers), core.WithStats(&st)).
				Run(context.Background(), db)
			if err != nil {
				return fmt.Errorf("expr: Figure14 %s: %w", prof.Name, err)
			}
			cands[i] = st.NumCandidates
			times[i] = st.TotalTime()
			mode := "global"
			if tol == dbscan.ActualTolerance {
				mode = "actual"
			}
			o.record(Record{Exp: "fig14", Dataset: prof.Name, Method: mode,
				Metrics: map[string]float64{
					"candidates": float64(st.NumCandidates),
					"time_ms":    msf(st.TotalTime()),
				}})
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%s\n", prof.Name, cands[0], cands[1], ms(times[0]), ms(times[1]))
	}
	return w.Flush()
}
