// Command convoyfind discovers convoys in a CSV trajectory file.
//
// Usage:
//
//	convoyfind -input traj.csv -m 3 -k 180 -e 8 [-algo cuts*] [-delta δ] [-lambda λ]
//	           [-workers N] [-limit N] [-timeout 30s]
//	           [-stats] [-explain] [-format text|json|jsonl|json-array]
//
// The input is "obj,t,x,y" CSV with a header line or the binary CTB format
// (see the tsio package), told apart by the file's first bytes, not its
// name. The convoy parameters follow the paper: m is the minimum group
// size, k the minimum lifetime in time points, e the density-connection
// distance.
//
// The flags spell a wire.QuerySpec — the query convoyd's POST /v1/query
// takes — and wire.QuerySpec.Normalize is the only validator and defaulter
// behind them, so a flag means here what its field means there and a
// rejection is worded the same on both: the algorithm defaults to CuTS*,
// the paper's fastest; δ and λ default to the automatic guidelines of
// Section 7.4; m and k must be ≥ 1.
//
// Clustering is the paper's DBSCAN over positions. Convoys in an "a,b,t,w"
// contact log (internal/proxgraph) are a library option,
// convoys.WithClusterer(log.Clusterer()) — see ExampleWithClusterer.
//
// -format json emits one JSON object per convoy (NDJSON) in the same wire
// schema the convoyd server speaks (objects, start, end, lifetime), so
// pipelines can mix CLI and server output; -format jsonl is the streaming
// variant, printing each convoy the moment the scan closes it instead of
// waiting for the full answer. With -limit the scan stops after that many:
// it returns within one clustering pass per worker and abandons everything
// but the few chunks of ticks (or candidates) already in flight — the bound
// documented on Query.Seq. The answer is the first convoys the scan closes.
// -format json-array wraps the same objects in one indented JSON array.
//
// -explain traces the discovery and prints the per-stage timing profile
// (the same stage breakdown POST /v1/query?...&explain=true returns) to
// stderr after the results, so it composes with every -format.
//
// -timeout bounds the whole discovery; SIGINT (Ctrl-C) aborts it the same
// way. Both cancel the clustering pipeline mid-run — with -format jsonl
// the convoys already printed remain valid answers — and exit nonzero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/tsio"
	"repro/internal/wire"
)

func main() {
	var (
		input   = flag.String("input", "", "input file: CSV (obj,t,x,y with header) or binary CTB; required")
		m       = flag.Int("m", 2, "minimum number of objects in a convoy")
		k       = flag.Int64("k", 2, "minimum convoy lifetime in time points")
		e       = flag.Float64("e", 1, "density-connection distance threshold")
		algo    = flag.String("algo", "", "algorithm: cmc, cuts, cuts+ or cuts* (default cuts*)")
		delta   = flag.Float64("delta", 0, "simplification tolerance δ (0 = automatic guideline)")
		lambda  = flag.Int64("lambda", 0, "time-partition length λ (0 = automatic guideline)")
		stats   = flag.Bool("stats", false, "print phase timings and filter statistics")
		explain = flag.Bool("explain", false, "print the per-stage timing profile to stderr after the results")
		format  = flag.String("format", "text", "output format: text, json (NDJSON), jsonl (NDJSON, streamed as found) or json-array")
		workers = flag.Int("workers", 0, "goroutines per discovery stage (0 = all CPU cores, 1 = serial)")
		limit   = flag.Int("limit", 0, "stop after this many convoys, abandoning the scan beyond the chunks already in flight (0 = all)")
		timeout = flag.Duration("timeout", 0, "abort discovery after this long (0 = no deadline)")
	)
	flag.Parse()
	if *input == "" {
		fmt.Fprintln(os.Stderr, "convoyfind: -input is required")
		flag.Usage()
		os.Exit(2)
	}
	if *workers <= 0 {
		*workers = core.DefaultWorkers()
	}

	// Ctrl-C cancels the discovery pipeline (the run returns ctx.Err()
	// within about one clustering pass per worker); a second Ctrl-C kills
	// the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := options{
		input: *input, m: *m, k: *k, e: *e, algo: *algo,
		delta: *delta, lambda: *lambda, workers: *workers,
		limit: *limit, stats: *stats, explain: *explain, format: *format,
	}
	if err := run(ctx, os.Stdout, opts); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "convoyfind: interrupted")
		} else if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "convoyfind: timed out after %v\n", *timeout)
		} else {
			fmt.Fprintln(os.Stderr, "convoyfind:", err)
		}
		os.Exit(1)
	}
}

// options carries one invocation's settings.
type options struct {
	input   string
	m       int
	k       int64
	e       float64
	algo    string
	delta   float64
	lambda  int64
	workers int
	limit   int
	stats   bool
	explain bool
	format  string
}

// spec spells the options as the wire's query: the one vocabulary the CLI
// shares with convoyd, validated and defaulted by its Normalize alone.
func (o options) spec() wire.QuerySpec {
	return wire.QuerySpec{
		Params: wire.ParamsJSON{M: o.m, K: o.k, Eps: o.e},
		Algo:   o.algo,
		Delta:  o.delta,
		Lambda: o.lambda,
	}
}

func run(ctx context.Context, out io.Writer, o options) error {
	switch strings.ToLower(o.format) {
	case "text", "json", "jsonl", "json-array":
	default:
		return fmt.Errorf("unknown format %q (want text, json, jsonl or json-array)", o.format)
	}
	res, err := o.spec().Normalize()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(o.input)
	if err != nil {
		return err
	}
	db, err := tsio.Decode(data)
	if err != nil {
		return err
	}
	var st core.Stats
	opts := res.Options(o.workers, &st)
	if o.limit > 0 {
		opts = append(opts, core.WithLimit(o.limit))
	}
	q := core.NewQuery(opts...)
	o.stats = o.stats && !res.IsCMC // CMC has no filter statistics to print

	if !o.explain {
		return discover(ctx, out, o, q, db, &st)
	}
	// -explain: run the same discovery under a private forced trace and
	// print the stage breakdown (the server's explain=true profile) to
	// stderr once the results are out.
	ctx, root := trace.NewTracer().Start(ctx, "convoyfind", trace.Forced())
	err = discover(ctx, out, o, q, db, &st)
	root.End()
	if err != nil {
		return err
	}
	if tj, ok := root.Collect(); ok {
		if ex, ok := wire.ExplainFromTrace(tj); ok {
			printExplain(os.Stderr, ex)
		}
	}
	return nil
}

// printExplain renders a query profile the way the text formats do:
// one line per pipeline stage, attributes appended.
func printExplain(w io.Writer, ex wire.ExplainJSON) {
	fmt.Fprintf(w, "query profile: total %.3fms (trace %s)\n", ex.TotalMS, ex.TraceID)
	for _, s := range ex.Stages {
		fmt.Fprintf(w, "  %-8s %10.3fms", s.Name, s.DurationMS)
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%s", k, s.Attrs[k])
		}
		fmt.Fprintln(w)
	}
}

// discover executes the query and writes the results in o.format.
func discover(ctx context.Context, out io.Writer, o options, q *core.Query, db *model.DB, st *core.Stats) error {
	labels := wire.DBLabels(db)
	if strings.ToLower(o.format) == "jsonl" {
		// Streaming: print each convoy the moment the scan closes it.
		// Breaking on a write error (or the -limit inside the query) stops
		// the scan within one clustering pass per worker.
		enc := json.NewEncoder(out)
		for c, serr := range q.Seq(ctx, db) {
			if serr != nil {
				return serr
			}
			if err := enc.Encode(wire.ConvoyToJSON(c, labels)); err != nil {
				return err
			}
		}
		return nil
	}

	res, err := q.Run(ctx, db)
	if err != nil {
		return err
	}

	switch strings.ToLower(o.format) {
	case "json":
		// One wire-schema object per line, like a feed's event payloads.
		enc := json.NewEncoder(out)
		for _, c := range res {
			if err := enc.Encode(wire.ConvoyToJSON(c, labels)); err != nil {
				return err
			}
		}
		return nil
	case "json-array":
		// One indented array.
		payload := make([]wire.ConvoyJSON, 0, len(res))
		for _, c := range res {
			payload = append(payload, wire.ConvoyToJSON(c, labels))
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(payload)
	}

	fmt.Fprintf(out, "%d convoy(s) with m=%d k=%d e=%g in %s (%d objects)\n",
		len(res), o.m, o.k, o.e, o.input, db.Len())
	for _, c := range res {
		fmt.Fprintf(out, "  {%s} ticks [%d, %d] (%d points)\n",
			strings.Join(wire.ConvoyToJSON(c, labels).Objects, ", "), c.Start, c.End, c.Lifetime())
	}
	if o.stats {
		fmt.Fprintf(out, "algorithm %v: δ=%.3g λ=%d workers=%d partitions=%d candidates=%d refinement-units=%.0f\n",
			st.Variant, st.Delta, st.Lambda, st.Workers, st.NumPartitions, st.NumCandidates, st.RefineUnits)
		fmt.Fprintf(out, "timings: simplify=%v filter=%v refine=%v total=%v (vertex reduction %.1f%%)\n",
			st.SimplifyTime, st.FilterTime, st.RefineTime, st.TotalTime(), st.VertexReduction()*100)
	}
	return nil
}
