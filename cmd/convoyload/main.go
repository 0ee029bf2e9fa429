// Command convoyload drives a live convoyd server with scripted traffic
// and reports what both sides measured: client-observed latency
// percentiles per operation, the server's own /metrics counters scraped
// after the run (Report.ServerMatch confirms the two request counts
// agree), and the per-stage profile of one sampled explain=true query.
// When the scrape fails or /metrics answers anything but 200, the
// server-side view degrades to a clear Report.ServerError instead of
// zeroed counters.
//
// Usage:
//
//	convoyload -addr http://127.0.0.1:8764 -scenario mixed -duration 10s -c 8
//	convoyload -addr http://127.0.0.1:8764 -scenario all -report report.json
//	convoyload -addr http://127.0.0.1:8764 -scenario batch -rate 500   # open loop
//	convoyload -list
//
// Scenario presets:
//
//	batch    batch-query firehose (rotating uploads/algorithms, cache mix)
//	monitor  standing-query fan-out (one tracker, dashboard pollers)
//	mixed    ingest + query interleaved over per-worker feeds
//	churn    feed create → ingest → delete lifecycle cycles
//	cancel   tiny timeout_ms deadlines forcing mid-run aborts
//
// With -rate 0 (default) the run is a closed loop: -c workers issue
// requests back-to-back. With -rate > 0 requests start on a fixed
// schedule (open loop), measuring behavior at an arrival rate the server
// does not control.
//
// The JSON report (-report, "-" for stdout) is an array of
// loadgen.Report, one element per scenario run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8764", "convoyd base URL")
		metrics  = flag.String("metrics", "", `exposition URL to scrape after the run ("" = <addr>/metrics, "-" = skip scraping)`)
		scenario = flag.String("scenario", "mixed", `traffic preset (see -list), or "all"`)
		duration = flag.Duration("duration", 10*time.Second, "load window per scenario")
		conc     = flag.Int("c", 8, "workers (closed loop) / serialized states (open loop)")
		rate     = flag.Float64("rate", 0, "open-loop arrival rate in requests/second (0 = closed loop)")
		seed     = flag.Int64("seed", 1, "payload generation seed")
		scale    = flag.Float64("scale", 1, "payload size multiplier")
		report   = flag.String("report", "", `write the JSON report here ("-" = stdout)`)
		list     = flag.Bool("list", false, "list scenario presets and exit")
	)
	flag.Parse()

	if *list {
		for _, name := range loadgen.ScenarioNames() {
			fmt.Printf("%-8s %s\n", name, loadgen.ScenarioDesc(name))
		}
		return
	}

	names := []string{*scenario}
	if *scenario == "all" {
		names = loadgen.ScenarioNames()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var reports []loadgen.Report
	for _, name := range names {
		rep, err := loadgen.Run(ctx, loadgen.Options{
			BaseURL:     *addr,
			MetricsURL:  *metrics,
			Scenario:    name,
			Duration:    *duration,
			Concurrency: *conc,
			Rate:        *rate,
			Seed:        *seed,
			Scale:       *scale,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "convoyload:", err)
			os.Exit(1)
		}
		reports = append(reports, rep)
		printSummary(rep)
		if ctx.Err() != nil {
			break
		}
	}

	if *report != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "convoyload:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *report == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*report, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "convoyload:", err)
			os.Exit(1)
		}
	}
}

func printSummary(rep loadgen.Report) {
	match := "n/a"
	if rep.ServerRequests > 0 || rep.ServerMatch {
		match = fmt.Sprintf("%v (server saw %d)", rep.ServerMatch, rep.ServerRequests)
	}
	fmt.Printf("%s [%s, c=%d]: %d requests (%d errors) in %.1fs — %.0f req/s, p50 %.2fms p95 %.2fms p99 %.2fms, accounting match: %s\n",
		rep.Scenario, rep.Mode, rep.Concurrency, rep.Requests, rep.Errors,
		rep.DurationMS/1000, rep.ThroughputRPS, rep.P50MS, rep.P95MS, rep.P99MS, match)
	for _, op := range rep.Ops {
		fmt.Printf("  %-14s %7d reqs  p50 %8.2fms  p95 %8.2fms  p99 %8.2fms\n",
			op.Op, op.Requests, op.P50MS, op.P95MS, op.P99MS)
	}
	if saved := rep.Server["convoyd_feed_cluster_passes_naive_total"] - rep.Server["convoyd_feed_cluster_passes_total"]; saved > 0 {
		fmt.Printf("  shared clustering saved %.0f DBSCAN passes server-side\n", saved)
	}
	if ex := rep.Explain; ex != nil {
		fmt.Printf("  sampled query profile: total %.3fms (trace %s)\n", ex.TotalMS, ex.TraceID)
		for _, s := range ex.Stages {
			fmt.Printf("    %-8s %10.3fms\n", s.Name, s.DurationMS)
		}
	}
	if rep.ServerError != "" {
		fmt.Printf("  server-side view degraded: %s\n", rep.ServerError)
	}
}
