// Command trajgen generates synthetic trajectory datasets as CSV, or as
// binary CTB when the -out path ends in .ctb.
//
// Usage:
//
//	trajgen -profile truck -scale 0.1 -seed 1 -out truck.csv
//	trajgen -profile cattle -scale 1 -out cattle.ctb
//	trajgen -profile custom -objects 20 -ticks 500 -groups 3 -groupsize 4 -out custom.csv
//
// The four named profiles (truck, cattle, car, taxi) emulate the paper's
// Table 3 datasets at the given time scale; "custom" builds a simple world
// with planted co-traveling groups plus background walkers.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/tsio"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and streams: it returns the exit
// status, 2 for a flag the generator cannot honour.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trajgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		profile   = fs.String("profile", "truck", "dataset profile: truck, cattle, car, taxi or custom")
		scale     = fs.Float64("scale", 0.1, "time-domain scale for the named profiles (1 = paper size)")
		seed      = fs.Int64("seed", 1, "random seed")
		out       = fs.String("out", "", "output path (default stdout); CSV unless the name ends in .ctb, which writes binary CTB")
		objects   = fs.Int("objects", 20, "custom: number of background objects")
		ticks     = fs.Int64("ticks", 500, "custom: time-domain length")
		groups    = fs.Int("groups", 2, "custom: number of planted groups")
		groupSize = fs.Int("groupsize", 3, "custom: objects per planted group")
		spacing   = fs.Float64("spacing", 2, "custom: chain spacing within groups")
		world     = fs.Float64("world", 500, "custom: world side length")
		speed     = fs.Float64("speed", 3, "custom: walker speed per tick")
		keep      = fs.Float64("keep", 1, "custom: per-tick sampling probability")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validate(*profile, *scale, *ticks, *objects, *groups, *groupSize); err != nil {
		fmt.Fprintln(stderr, "trajgen:", err)
		return 2
	}

	var db *model.DB
	switch *profile {
	case "truck":
		db = datagen.Truck(*scale, *seed).Generate()
	case "cattle":
		db = datagen.Cattle(*scale, *seed).Generate()
	case "car":
		db = datagen.Car(*scale, *seed).Generate()
	case "taxi":
		db = datagen.Taxi(*scale, *seed).Generate()
	case "custom":
		var gs []datagen.GroupSpec
		span := max(*ticks*3/4, 1)
		for g := 0; g < *groups; g++ {
			start := model.Tick(int64(g) * (*ticks - span) / int64(max(*groups, 2)))
			gs = append(gs, datagen.GroupSpec{
				Size:    *groupSize,
				Start:   start,
				End:     start + model.Tick(span) - 1,
				Spacing: *spacing,
			})
		}
		db = datagen.Scenario{
			Seed:       *seed,
			T:          *ticks,
			World:      *world,
			Speed:      *speed,
			Groups:     gs,
			Background: *objects,
			KeepProb:   *keep,
			SpanFrac:   [2]float64{0.5, 1},
			Jitter:     *spacing / 10,
		}.Generate()
	}

	st := db.Stats()
	fmt.Fprintf(stderr, "trajgen: %d objects, %d ticks, %d points (%.1f%% missing)\n",
		st.NumObjects, st.TimeDomainLength, st.TotalPoints, st.MissingFraction*100)

	var err error
	if *out == "" {
		err = tsio.WriteCSV(stdout, db)
	} else {
		err = save(*out, db)
	}
	if err != nil {
		fmt.Fprintln(stderr, "trajgen:", err)
		return 1
	}
	if *out != "" {
		fmt.Fprintf(stderr, "trajgen: wrote %s\n", *out)
	}
	return 0
}

// save writes db to path: as binary CTB when the name ends in .ctb (any
// case), as CSV otherwise. A failed Close fails the save, since it can be
// the first report of a write that never reached the disk.
func save(path string, db *model.DB) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close %s: %w", path, cerr)
		}
	}()
	if strings.HasSuffix(strings.ToLower(path), ".ctb") {
		return tsio.WriteBinary(f, db)
	}
	return tsio.WriteCSV(f, db)
}

// validate refuses the flag values the selected profile cannot generate
// from, before any generation starts.
func validate(profile string, scale float64, ticks int64, objects, groups, groupSize int) error {
	switch profile {
	case "truck", "cattle", "car", "taxi":
		if !(scale > 0) || math.IsInf(scale, 1) {
			return fmt.Errorf("-scale must be positive and finite (got %g)", scale)
		}
	case "custom":
		switch {
		case ticks < 1:
			return fmt.Errorf("-ticks must be ≥ 1 (got %d)", ticks)
		case objects < 0:
			return fmt.Errorf("-objects must be ≥ 0 (got %d)", objects)
		case groups < 0:
			return fmt.Errorf("-groups must be ≥ 0 (got %d)", groups)
		case groupSize < 1:
			return fmt.Errorf("-groupsize must be ≥ 1 (got %d)", groupSize)
		}
	default:
		return fmt.Errorf("unknown profile %q", profile)
	}
	return nil
}
