package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Result files and their comparison — the ladder's own judge. It lives
// here (not in internal/expr) so a change cannot loosen the rule that
// judges it.

// singleFile is what -workload … -out writes.
type singleFile struct {
	Env envRecord  `json:"env"`
	Run *runRecord `json:"run"`
}

// ladderFile is what a whole-ladder run writes: every workload's untraced
// runs (Reps of each) and one traced run, with the vocabulary they were
// measured under.
type ladderFile struct {
	// Claim is what gain this file's commit claims over its parent; the
	// ladder itself claims none.
	Claim     *string      `json:"claim"`
	Env       envRecord    `json:"env"`
	Seed      int64        `json:"seed"`
	Seconds   int          `json:"seconds"`
	Reps      int          `json:"reps"`
	Workloads []workload   `json:"workloads"`
	EndToEnd  []metricDef  `json:"end_to_end"`
	PerLayer  []metricDef  `json:"per_layer"`
	Runs      []*runRecord `json:"runs"`
}

func loadLadder(path string) (ladderFile, error) {
	var f ladderFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return f, fmt.Errorf("%s: no runs (not a ladder file?)", path)
	}
	return f, nil
}

// samples collects one metric's values over a workload's runs of one pass.
func (f ladderFile) samples(workload, metric string, trace bool) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge holds the candidate's runs b against the base's runs a for one
// metric. worseBy is how much worse b's median is than a's, as a share of
// a's (negative: better). The verdict is worse when that exceeds the
// bound; but where either side's run-to-run spread (IQR / median) is wider
// than the bound the medians cannot be told apart at that resolution, and
// the verdict is unresolved — not "unchanged" — unless every run of b
// reads better than every run of a.
func judge(a, b []float64, better string, bound float64) (worseBy, spread float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worseBy = (mb - ma) / ma
	}
	if better == higher {
		worseBy = -worseBy
	}
	spread = max(spreadShare(a), spreadShare(b))
	if spread > bound {
		if allBetter(a, b, better) {
			return worseBy, spread, verdictOK
		}
		return worseBy, spread, verdictUnresolved
	}
	if worseBy > bound {
		return worseBy, spread, verdictWorse
	}
	return worseBy, spread, verdictOK
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if better == higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// exactCounts are the per-layer counts that repeat exactly for one seed
// and run length; a difference between two files is a change in what the
// program does, never noise.
var exactCounts = []string{
	"wal.bytes_per_point_tick", "core.cluster_passes", "core.candidates",
	"dist.transfer_bytes_per_query", "tsio.tickblock_bytes",
}

// compareFiles prints, per workload in its own row and per end-to-end
// metric, both medians, the ratio with its base, the bound and the
// verdict. It reports whether any verdict was worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := loadLadder(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadLadder(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base      %s  (%s, seed %d, %d s, %d runs/workload)\n", pathA, a.Env.Revision, a.Seed, a.Seconds, a.Reps)
	fmt.Fprintf(w, "candidate %s  (%s, seed %d, %d s, %d runs/workload)\n\n", pathB, b.Env.Revision, b.Seed, b.Seconds, b.Reps)
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintln(w, "warning: the files were measured with different seeds or run lengths; their inputs differ")
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tcandidate median\tcandidate/base\tworse by\tspread\tbound\tverdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := a.samples(wl.Name, d.Name, false), b.samples(wl.Name, d.Name, false)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t-\t%.0f%%\tmissing\n", wl.Name, d.Name, d.Bound*100)
				continue
			}
			worseBy, spread, verdict := judge(xa, xb, d.Better, d.Bound)
			anyWorse = anyWorse || verdict == verdictWorse
			ratio := 0.0
			if m := median(xa); m != 0 {
				ratio = median(xb) / m
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g %s\t%.5g %s\t%.3f of %.5g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.Name, d.Name, median(xa), d.Unit, median(xb), d.Unit, ratio, median(xa), worseBy*100, spread*100, d.Bound*100, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return anyWorse, err
	}
	fmt.Fprintln(w, "\nexact counts (traced pass):")
	tw = tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, wl := range workloads {
		for _, name := range exactCounts {
			xa, xb := a.samples(wl.Name, name, true), b.samples(wl.Name, name, true)
			if len(xa) == 0 || len(xb) == 0 || (xa[0] == 0 && xb[0] == 0) {
				continue
			}
			state := "same"
			if xa[0] != xb[0] {
				state = "changed"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.10g\t%.10g\t%s\n", wl.Name, name, xa[0], xb[0], state)
		}
	}
	return anyWorse, tw.Flush()
}

// printLadder renders a ladder file: end-to-end medians per workload, then
// the traced pass's layers.
func printLadder(w io.Writer, f ladderFile) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tunit\tspread\truns")
	for _, wl := range f.Workloads {
		for _, d := range f.EndToEnd {
			xs := f.samples(wl.Name, d.Name, false)
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%s\t%.1f%%\t%d\n", wl.Name, d.Name, median(xs), d.Unit, spreadShare(xs)*100, len(xs))
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprint(tw, "layer metric\tunit")
	for _, wl := range f.Workloads {
		fmt.Fprintf(tw, "\t%s", wl.Name)
	}
	fmt.Fprintln(tw)
	for _, d := range f.PerLayer {
		fmt.Fprintf(tw, "%s\t%s", d.Name, d.Unit)
		for _, wl := range f.Workloads {
			if xs := f.samples(wl.Name, d.Name, true); len(xs) > 0 && xs[0] != 0 {
				fmt.Fprintf(tw, "\t%.5g", xs[0])
			} else {
				fmt.Fprint(tw, "\t·")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	for _, r := range f.Runs {
		for _, why := range r.Invalid {
			fmt.Fprintf(w, "INVALID %s (trace %v): %s\n", r.Workload, r.Trace, why)
		}
	}
}
