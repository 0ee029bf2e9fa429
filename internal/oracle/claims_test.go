package oracle_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dbscan"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/simplify"
)

// TestPaperClaims is the paper's evaluation (§7 and the appendix) as a
// test: the claims that do not depend on the machine, asserted as counts
// on the four dataset profiles of Table 3 at two fixed scales. Run it with
// -v to see each claim's table in the paper's layout; the timings in those
// tables are printed, never asserted.
//
// A claim the data does not bear out is not dropped: the rows that break it
// are listed in deviations with their measurements, and a listed row that
// stops deviating (or deviates differently) fails the test too, so the list
// stays true. Answers are not claims: every answer must equal the oracle's.
func TestPaperClaims(t *testing.T) {
	const seed = 1
	// k = 9 and k = 36. The costliest claims, the δ/λ sweeps and the MC2
	// study, run at the smaller scale only.
	for _, at := range []struct {
		scale float64
		all   bool
	}{{0.05, true}, {0.2, false}} {
		t.Run(fmt.Sprintf("scale=%g", at.scale), func(t *testing.T) {
			var profiles []profile
			for _, prof := range datagen.AllProfiles(at.scale, seed) {
				db := prof.Generate()
				p := core.Params{M: prof.M, K: prof.K, Eps: prof.Eps}
				profiles = append(profiles, profile{prof, at.scale, db, p, answer(db, p)})
			}
			t.Run("Table3", func(t *testing.T) { table3(t, profiles) })
			t.Run("S5-answers-and-superset", func(t *testing.T) { claimAnswers(t, profiles) })
			t.Run("S7.3-refinement-units", func(t *testing.T) { claimRefinementUnits(t, profiles) })
			t.Run("Fig14-actual-tolerance", func(t *testing.T) { claimActualTolerance(t, profiles) })
			if at.all {
				t.Run("Fig15-17-sweeps", func(t *testing.T) { claimSweeps(t, profiles) })
				t.Run("Fig19-MC2", func(t *testing.T) { claimMC2Differs(t, profiles) })
			}
		})
	}
}

// deviations are the claim rows the data does not bear out, keyed by claim,
// scale and dataset, each with its measurements as the claim logs them.
var deviations = map[string]string{
	// §7.3: CuTS* refines least on every profile and scale, but CuTS+ is
	// not always cheaper than CuTS.
	"S7.3/0.05/Cattle": "CuTS 286392, CuTS+ 315204, CuTS* 85632",
	"S7.3/0.05/Taxi":   "CuTS 420948, CuTS+ 444536, CuTS* 1016",
	"S7.3/0.2/Taxi":    "CuTS 242764740, CuTS+ 556603756, CuTS* 14080",
	// Figure 14: on one profile actual tolerances leave more candidates, not
	// fewer (the answer is the oracle's either way).
	"Fig14/0.05/Cattle": "23 candidates under global tolerance, 30 under actual",
}

// verdict judges one row of a claim: a row that breaks the claim must be a
// listed deviation with exactly these measurements, and a listed row must
// still break it.
func verdict(t *testing.T, claim string, prof profile, holds bool, measured string) {
	t.Helper()
	key := fmt.Sprintf("%s/%g/%s", claim, prof.scale, prof.Name)
	pinned, listed := deviations[key]
	switch {
	case !holds && !listed:
		t.Errorf("%s: the claim does not hold: %s", key, measured)
	case !holds && pinned != measured:
		t.Errorf("%s: deviation measured %q, pinned %q", key, measured, pinned)
	case holds && listed:
		t.Errorf("%s: listed as a deviation, but the claim holds (%s); remove it", key, measured)
	case listed:
		t.Logf("deviation %s: %s", key, measured)
	}
}

type profile struct {
	datagen.Profile
	scale float64
	db    *model.DB
	p     core.Params
	want  core.Result // the oracle's answer
}

var variants = []core.Variant{core.VariantCuTS, core.VariantCuTSPlus, core.VariantCuTSStar}

// answer is the oracle's answer in core's type.
func answer(db *model.DB, p core.Params) core.Result {
	var out core.Result
	for _, c := range oracle.Convoys(db, p.M, p.K, p.Eps) {
		out = append(out, core.Convoy(c))
	}
	return out
}

// run answers a query and returns its statistics.
func run(t *testing.T, prof profile, opts ...core.Option) (core.Result, core.Stats) {
	t.Helper()
	var st core.Stats
	res, err := core.NewQuery(append([]core.Option{core.WithParams(prof.p), core.WithStats(&st)}, opts...)...).
		Run(context.Background(), prof.db)
	if err != nil {
		t.Fatalf("%s: %v", prof.Name, err)
	}
	return res, st
}

// table collects a claim's rows and logs them, tab-aligned.
type table struct {
	b strings.Builder
	w *tabwriter.Writer
}

func newTable(title, header string) *table {
	tb := &table{}
	tb.w = tabwriter.NewWriter(&tb.b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tb.w, title)
	fmt.Fprintln(tb.w, header)
	return tb
}

func (tb *table) row(format string, args ...any) { fmt.Fprintf(tb.w, format+"\n", args...) }

func (tb *table) log(t *testing.T) {
	t.Helper()
	tb.w.Flush()
	t.Log("\n" + tb.b.String())
}

func ms(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }

// table3 logs the dataset statistics and settings; it asserts only that
// every profile has convoys to find.
func table3(t *testing.T, profiles []profile) {
	tb := newTable("Table 3: dataset statistics and experiment settings",
		"dataset\tN\tT\tavg len\tpoints\tmissing%\tm\tk\te\tδ(table)\tλ(table)\tconvoys")
	for _, prof := range profiles {
		st := prof.db.Stats()
		tb.row("%s\t%d\t%d\t%.0f\t%d\t%.0f\t%d\t%d\t%g\t%.1f\t%d\t%d", prof.Name, st.NumObjects, st.TimeDomainLength,
			st.AvgTrajLen, st.TotalPoints, st.MissingFraction*100, prof.M, prof.K, prof.Eps, prof.Delta, prof.Lambda, len(prof.want))
		if len(prof.want) == 0 {
			t.Errorf("%s: no convoys; every claim on it would be vacuous", prof.Name)
		}
	}
	tb.log(t)
}

// claimAnswers: CMC and every CuTS variant answer exactly the oracle, and
// the CuTS filter never drops a true convoy (§5) — every oracle convoy lies
// within a candidate's support and window. Logs Figures 12 and 13.
func claimAnswers(t *testing.T, profiles []profile) {
	tb := newTable("Figures 12–13: answers, candidates and time per phase (ms)",
		"dataset\tmethod\tconvoys\t= oracle\tcandidates\tsimplify\tfilter\trefine\ttotal")
	for _, prof := range profiles {
		t0 := time.Now()
		res, _ := run(t, prof, core.WithCMC())
		cmcTime := time.Since(t0)
		tb.row("%s\tCMC\t%d\t%v\t\t\t\t\t%s", prof.Name, len(res), res.Equal(prof.want), ms(cmcTime))
		if !res.Equal(prof.want) {
			t.Errorf("%s: CMC ≠ oracle", prof.Name)
		}
		for _, v := range variants {
			res, st := run(t, prof, core.WithVariant(v))
			tb.row("%s\t%v\t%d\t%v\t%d\t%s\t%s\t%s\t%s", prof.Name, v, len(res), res.Equal(prof.want), st.NumCandidates,
				ms(st.SimplifyTime), ms(st.FilterTime), ms(st.RefineTime), ms(st.TotalTime()))
			if !res.Equal(prof.want) {
				t.Errorf("%s: %v ≠ oracle", prof.Name, v)
			}
			if missed := uncovered(prof, v, st); len(missed) > 0 {
				t.Errorf("%s: %v's filter dropped true convoys %v (§5)", prof.Name, v, missed)
			}
		}
	}
	tb.log(t)
}

// simplifyAll simplifies every trajectory of db serially, in ID order.
func simplifyAll(db *model.DB, delta float64, m simplify.Method) []*simplify.Trajectory {
	sts, _ := simplify.SimplifyAllWorkers(context.Background(), db, delta, m, 1)
	return sts
}

// uncovered returns the oracle convoys no filter candidate covers, with the
// δ and λ a run resolved.
func uncovered(prof profile, v core.Variant, st core.Stats) []core.Convoy {
	sts := simplifyAll(prof.db, st.Delta, v.SimplifyMethod())
	cands := core.Filter(prof.db, prof.p, sts, core.FilterConfig{
		Lambda: st.Lambda, Bound: v.Bound(), Tolerance: dbscan.ActualTolerance, Delta: st.Delta,
	})
	var missed []core.Convoy
	for _, c := range prof.want {
		covered := false
		for _, cand := range cands {
			if cand.Start <= c.Start && c.End <= cand.End && subset(c.Objects, cand.Support) {
				covered = true
				break
			}
		}
		if !covered {
			missed = append(missed, c)
		}
	}
	return missed
}

func subset(a, b []model.ObjectID) bool {
	in := map[model.ObjectID]bool{}
	for _, x := range b {
		in[x] = true
	}
	for _, x := range a {
		if !in[x] {
			return false
		}
	}
	return true
}

// claimRefinementUnits: §7.3 — the tighter the simplification bound, the
// less refinement work: refinement units CuTS* ≤ CuTS+ ≤ CuTS, at the
// profile's Table 3 δ and λ.
func claimRefinementUnits(t *testing.T, profiles []profile) {
	tb := newTable("§7.3: refinement units at Table 3's δ and λ",
		"dataset\tCuTS\tCuTS+\tCuTS*\tCuTS* ≤ CuTS+ ≤ CuTS")
	for _, prof := range profiles {
		var units [3]float64
		for i, v := range variants {
			_, st := run(t, prof, core.WithVariant(v), core.WithDelta(prof.Delta), core.WithLambda(prof.Lambda))
			units[i] = st.RefineUnits
		}
		holds := units[2] <= units[1] && units[1] <= units[0]
		tb.row("%s\t%.0f\t%.0f\t%.0f\t%v", prof.Name, units[0], units[1], units[2], holds)
		verdict(t, "S7.3", prof, holds, fmt.Sprintf("CuTS %.0f, CuTS+ %.0f, CuTS* %.0f", units[0], units[1], units[2]))
	}
	tb.log(t)
}

// claimActualTolerance: Figure 14 — CuTS* under actual tolerances keeps no
// more candidates than under the global tolerance, with the same answer.
func claimActualTolerance(t *testing.T, profiles []profile) {
	tb := newTable("Figure 14: effect of actual tolerance (CuTS*)",
		"dataset\tcand(global)\tcand(actual)\ttime global (ms)\ttime actual (ms)")
	for _, prof := range profiles {
		global, gst := run(t, prof, core.WithTolerance(dbscan.GlobalTolerance))
		actual, ast := run(t, prof, core.WithTolerance(dbscan.ActualTolerance))
		tb.row("%s\t%d\t%d\t%s\t%s", prof.Name, gst.NumCandidates, ast.NumCandidates, ms(gst.TotalTime()), ms(ast.TotalTime()))
		verdict(t, "Fig14", prof, ast.NumCandidates <= gst.NumCandidates,
			fmt.Sprintf("%d candidates under global tolerance, %d under actual", gst.NumCandidates, ast.NumCandidates))
		if !global.Equal(prof.want) || !actual.Equal(prof.want) {
			t.Errorf("%s: a tolerance mode changed the answer", prof.Name)
		}
	}
	tb.log(t)
}

// claimSweeps: Figures 15–17 — no δ or λ changes the answer: the δ sweep
// on Cattle (Figure 15, with each method's vertex reduction), Car and Taxi
// (Figure 16), and the λ sweep on Truck and Cattle (Figure 17), for every
// CuTS variant.
func claimSweeps(t *testing.T, profiles []profile) {
	byName := map[string]profile{}
	for _, prof := range profiles {
		byName[prof.Name] = prof
	}
	tb := newTable("Figure 15 (Cattle): trajectory simplification methods",
		"δ\tmethod\treduction%")
	cattle := byName["Cattle"]
	for _, delta := range deltaSweep(cattle) {
		for _, m := range []simplify.Method{simplify.DP, simplify.DPPlus, simplify.DPStar} {
			kept, total := 0, 0
			for _, st := range simplifyAll(cattle.db, delta, m) {
				kept += st.Len()
				total += st.Orig.Len()
			}
			tb.row("%.1f\t%v\t%.1f", delta, m, 100*(1-float64(kept)/float64(total)))
		}
	}
	tb.log(t)

	sweep := func(title, param string, names []string, values func(profile) []float64, opts func(profile, float64) []core.Option) {
		tb := newTable(title, "dataset\t"+param+"\tmethod\trefinement units\tcandidates\t= oracle\ttime (ms)")
		for _, name := range names {
			prof := byName[name]
			for _, x := range values(prof) {
				for _, v := range variants {
					res, st := run(t, prof, append(opts(prof, x), core.WithVariant(v))...)
					tb.row("%s\t%g\t%v\t%.0f\t%d\t%v\t%s", name, x, v, st.RefineUnits, st.NumCandidates, res.Equal(prof.want), ms(st.TotalTime()))
					if !res.Equal(prof.want) {
						t.Errorf("%s %s=%g: %v ≠ oracle", name, param, x, v)
					}
				}
			}
		}
		tb.log(t)
	}
	sweep("Figures 15–16: effect of the simplification tolerance δ", "δ", []string{"Cattle", "Car", "Taxi"}, deltaSweep,
		func(prof profile, delta float64) []core.Option {
			return []core.Option{core.WithDelta(delta), core.WithLambda(prof.Lambda)}
		})
	sweep("Figure 17: effect of the time-partition length λ", "λ", []string{"Truck", "Cattle"}, lambdaSweep,
		func(prof profile, lambda float64) []core.Option {
			return []core.Option{core.WithDelta(prof.Delta), core.WithLambda(int64(lambda))}
		})
}

// deltaSweep is the Figure 15/16 δ range: fractions and multiples of the
// profile's Table 3 δ.
func deltaSweep(prof profile) []float64 {
	var out []float64
	for _, f := range []float64{0.25, 0.5, 1, 1.5, 2} {
		out = append(out, prof.Delta*f)
	}
	return out
}

// lambdaSweep is the Figure 17 λ range: ½, 1, 2 and 4 times the profile's
// Table 3 λ.
func lambdaSweep(prof profile) []float64 {
	var out []float64
	for _, f := range []float64{0.5, 1, 2, 4} {
		out = append(out, max(1, float64(int64(float64(prof.Lambda)*f))))
	}
	return out
}

// claimMC2Differs: the appendix's accuracy study (Figure 19) — a moving
// cluster is not a convoy, so MC2 misreports on at least one profile and
// threshold θ.
func claimMC2Differs(t *testing.T, profiles []profile) {
	tb := newTable("Figure 19: discovery quality of MC2 for convoys",
		"dataset\tθ\treported\treference\tfalse pos%\tfalse neg%")
	differs := 0
	for _, prof := range profiles {
		for _, theta := range []float64{0.4, 0.6, 0.8, 1.0} {
			mc, err := mc2(prof.db, prof.p, theta)
			if err != nil {
				t.Fatalf("%s θ=%g: %v", prof.Name, theta, err)
			}
			rep := compareAnswers(mc, prof.want)
			tb.row("%s\t%.1f\t%d\t%d\t%.1f\t%.1f", prof.Name, theta, rep.Reported, rep.Reference, rep.FalsePositives, rep.FalseNegatives)
			if rep.FalsePositives > 0 || rep.FalseNegatives > 0 {
				differs++
			}
		}
	}
	tb.log(t)
	if differs == 0 {
		t.Errorf("MC2 answered exactly the oracle on every profile and θ")
	}
}
