// Command ladder is the repository's benchmark: five workloads over real
// in-process convoyd servers on loopback TCP, end-to-end metrics measured
// with tracing off, and a traced pass that attributes each workload's time
// to the layers under internal/. BENCHMARK.json at the repository root
// declares its command, workloads, metrics and regression bounds; README.md
// here explains every choice.
//
//	ladder -workload truck-cmc -seed 1 -seconds 12 -trace 0   one run; last stdout line is the result JSON
//	ladder -reps 5 -out BENCH_ladder.json                     every workload, both passes → a ladder file
//	ladder -compare a.json b.json                             judge b against a by the declared bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "run one workload (default: all of them, both passes, into a ladder file)")
		seed    = flag.Int64("seed", pinnedSeed, "workload seed: the same seed generates the same inputs")
		seconds = flag.Int("seconds", pinnedSeconds, "measuring time of one run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		out     = flag.String("out", "", "write the full result (environment, counts, digests, timings) to this file")
		spans   = flag.String("spans", "", "with -trace 1: write the recorded spans to this file")
		reps    = flag.Int("reps", 1, "without -workload: untraced runs per workload")
		compare = flag.Bool("compare", false, "compare two ladder files: -compare a.json b.json")
		workdir = flag.String("workdir", ".bench_build", "scratch directory (inside the checkout); each run works in a subdirectory it removes")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: ladder -compare a.json b.json")
			return 2
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ladder:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 || *seconds < 1 || *reps < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "ladder: unknown workload %q\n", *name)
			return 2
		}
		rec, err := runOne(w, *seed, *seconds, *trace == 1, *workdir, *spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ladder:", err)
			return 1
		}
		if *out != "" {
			if err := writeJSON(*out, singleFile{Env: environment(), Run: rec}); err != nil {
				fmt.Fprintln(os.Stderr, "ladder:", err)
				return 1
			}
		}
		printRun(rec)
		if !rec.Correct {
			return 1
		}
		return 0
	}

	// The whole ladder.
	file := ladderFile{
		Env: environment(), Seed: *seed, Seconds: *seconds, Reps: *reps,
		Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer,
	}
	failed := false
	for _, w := range workloads {
		for pass := 0; pass <= *reps; pass++ {
			traced := pass == *reps // the traced pass runs last
			rec, err := runOne(w, *seed, *seconds, traced, *workdir, "")
			if err != nil {
				fmt.Fprintln(os.Stderr, "ladder:", err)
				return 1
			}
			failed = failed || !rec.Correct
			file.Runs = append(file.Runs, rec)
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(*workdir, "BENCH_ladder.json")
	}
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintln(os.Stderr, "ladder:", err)
		return 1
	}
	printLadder(os.Stdout, file)
	fmt.Printf("\nwrote %s\n", path)
	if failed {
		return 1
	}
	return 0
}

// runOne runs one pass of one workload in its own scratch directory.
func runOne(w workload, seed int64, seconds int, trace bool, workdir, spansPath string) (rec *runRecord, err error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "ladder-run-")
	if err != nil {
		return nil, err
	}
	rc := &runCtx{
		seed: seed, seconds: seconds, trace: trace, dir: dir,
		rec: newRecord(w.Name, seed, seconds, trace), values: map[string]float64{},
	}
	defer func() {
		for _, f := range rc.cleanup {
			err = errors.Join(err, f())
		}
		err = errors.Join(err, os.RemoveAll(dir))
	}()
	rc.logf("seed %d, %d s, trace %v", seed, seconds, trace)
	if err := w.run(rc); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	rc.rec.finish(rc.values)
	rc.logf("input digest %s", rc.rec.Digests["input"])
	for _, why := range rc.rec.Invalid {
		rc.logf("INVALID: %s", why)
	}
	for _, e := range rc.rec.Errors {
		rc.logf("FAILED OP: %s", e)
	}
	if spansPath != "" && rc.spans != nil {
		if err := rc.spans.write(spansPath); err != nil {
			return nil, err
		}
	}
	return rc.rec, nil
}

// printRun prints every metric by name with its unit, then — as the last
// line of standard output — the one JSON object the driver reads.
func printRun(rec *runRecord) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", rec.Workload, n, m.Value, m.Unit)
	}
	tw.Flush()
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
