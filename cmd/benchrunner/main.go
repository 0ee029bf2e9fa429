// Command benchrunner regenerates the paper's evaluation tables and
// figures on the synthetic dataset profiles.
//
// Usage:
//
//	benchrunner -exp all -scale 0.05            # every experiment, small scale
//	benchrunner -exp fig12 -scale 1             # Figure 12 at full Table 3 scale
//	benchrunner -exp fig12 -json out/           # also write out/BENCH_fig12.json
//	benchrunner -list                           # list experiment ids
//
// The eight experiment ids follow the paper — table3, fig12 … fig17,
// fig19. Scale multiplies the time-domain length of every dataset (1
// reproduces the Table 3 sizes; expect minutes of runtime at full scale).
//
// -json <dir> additionally writes one BENCH_<exp>.json per experiment run:
// the machine-readable measurement rows behind the printed tables, tagged
// with scale and seed.
//
// benchrunner reproduces the paper's evaluation; it is not the repository's
// benchmark. How fast the system is, and where the time goes, is measured
// by bench/ladder (see bench/ladder/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/expr"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (table3, fig12..fig17, fig19) or 'all'")
		scale   = flag.Float64("scale", 0.05, "time-domain scale (1 = paper's Table 3 sizes)")
		seed    = flag.Int64("seed", 1, "random seed for data generation")
		workers = flag.Int("workers", 1, "goroutines per discovery stage for the experiments")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		jsonDir = flag.String("json", "", "directory to write BENCH_<exp>.json measurement files into")
	)
	flag.Parse()

	if *list {
		for _, e := range expr.Experiments {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}

	var ids []string
	if *exp == "all" {
		for _, e := range expr.Experiments {
			ids = append(ids, e.ID)
		}
	} else {
		if _, ok := expr.Lookup(*exp); !ok {
			fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		ids = []string{*exp}
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
	}

	for _, id := range ids {
		run, _ := expr.Lookup(id)
		opts := expr.Options{Scale: *scale, Seed: *seed, Out: os.Stdout, Workers: *workers}
		var records []expr.Record
		if *jsonDir != "" {
			opts.Record = func(r expr.Record) { records = append(records, r) }
		}
		if err := run(opts); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		fmt.Println()
		if *jsonDir != "" {
			if err := writeBench(*jsonDir, expr.BenchFile{Exp: id, Scale: *scale, Seed: *seed, Workers: *workers, Records: records}); err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner:", err)
				os.Exit(1)
			}
		}
	}
}

// writeBench writes one experiment's measurement file.
func writeBench(dir string, bf expr.BenchFile) error {
	path := filepath.Join(dir, "BENCH_"+bf.Exp+".json")
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
