package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/trace"
)

// traceQuery runs q under a forced trace and returns the completed trace.
func traceQuery(t *testing.T, q *Query, db *model.DB) trace.TraceJSON {
	t.Helper()
	tr := trace.NewTracer()
	ctx, root := tr.Start(context.Background(), "test", trace.Forced())
	if _, err := q.Run(ctx, db); err != nil {
		t.Fatal(err)
	}
	root.End()
	recent := tr.Recent(0)
	if len(recent) != 1 {
		t.Fatalf("ring has %d traces, want 1", len(recent))
	}
	return recent[0]
}

// checkNesting asserts every child span starts and ends within its
// parent's interval (within eps ms for clock granularity).
func checkNesting(t *testing.T, n *trace.SpanJSON) {
	t.Helper()
	const eps = 0.5
	for _, c := range n.Children {
		if c.OffsetMS < n.OffsetMS-eps {
			t.Errorf("span %s starts (%.3f) before parent %s (%.3f)", c.Name, c.OffsetMS, n.Name, n.OffsetMS)
		}
		if c.OffsetMS+c.DurationMS > n.OffsetMS+n.DurationMS+eps {
			t.Errorf("span %s ends (%.3f) after parent %s (%.3f)",
				c.Name, c.OffsetMS+c.DurationMS, n.Name, n.OffsetMS+n.DurationMS)
		}
		checkNesting(t, c)
	}
}

// stageNames returns the names of the run span's direct children.
func stageNames(t *testing.T, tj trace.TraceJSON) []string {
	t.Helper()
	run := tj.Root.Find("run")
	if run == nil {
		t.Fatalf("no run span in trace: %+v", tj.Root)
	}
	names := make([]string, 0, len(run.Children))
	for _, c := range run.Children {
		names = append(names, c.Name)
	}
	return names
}

func TestSpanTreeWellFormed(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(7)), 24, 40)
	p := Params{M: 3, K: 3, Eps: 2.5}
	cases := []struct {
		name   string
		opts   []Option
		stages []string
	}{
		{"cmc-serial", []Option{WithCMC()}, []string{"scan"}},
		{"cmc-parallel", []Option{WithCMC(), WithWorkers(4)}, []string{"scan"}},
		{"cuts-serial", []Option{WithVariant(VariantCuTS)}, []string{"simplify", "filter", "refine"}},
		{"cuts-star-parallel", []Option{WithVariant(VariantCuTSStar), WithWorkers(4)}, []string{"simplify", "filter", "refine"}},
		{"cuts-plus-parallel", []Option{WithVariant(VariantCuTSPlus), WithWorkers(4)}, []string{"simplify", "filter", "refine"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQuery(append([]Option{WithParams(p)}, tc.opts...)...)
			tj := traceQuery(t, q, db)
			if len(tj.Orphans) != 0 {
				t.Fatalf("orphan spans: %+v", tj.Orphans)
			}
			checkNesting(t, tj.Root)
			got := stageNames(t, tj)
			if len(got) != len(tc.stages) {
				t.Fatalf("stages = %v, want %v", got, tc.stages)
			}
			for i := range got {
				if got[i] != tc.stages[i] {
					t.Fatalf("stages = %v, want %v", got, tc.stages)
				}
			}
			// Stage durations are wall-clock nested inside the run span,
			// so their sum never exceeds its duration.
			run := tj.Root.Find("run")
			var sum float64
			for _, c := range run.Children {
				sum += c.DurationMS
			}
			if sum > run.DurationMS+0.5 {
				t.Fatalf("stage sum %.3fms exceeds run %.3fms", sum, run.DurationMS)
			}
		})
	}
}

func TestSpanAttrsAnnotated(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(11)), 20, 30)
	q := NewQuery(WithParams(Params{M: 3, K: 3, Eps: 2.5}), WithVariant(VariantCuTSStar), WithWorkers(4))
	tj := traceQuery(t, q, db)
	run := tj.Root.Find("run")
	if run.Attrs["algo"] != "CuTS*" || run.Attrs["m"] != "3" || run.Attrs["workers"] != "4" {
		t.Fatalf("run attrs = %v", run.Attrs)
	}
	if run.Attrs["cluster_passes"] == "" {
		t.Fatalf("run missing cluster_passes: %v", run.Attrs)
	}
	filter := run.Find("filter")
	if filter.Attrs["par_jobs"] == "" || filter.Attrs["par_workers"] == "" {
		t.Fatalf("filter missing par fan-out attrs: %v", filter.Attrs)
	}
	if filter.Attrs["lambda"] == "" || filter.Attrs["candidates"] == "" {
		t.Fatalf("filter attrs = %v", filter.Attrs)
	}
	simp := run.Find("simplify")
	if simp.Attrs["vertex_kept"] == "" || simp.Attrs["vertex_total"] == "" {
		t.Fatalf("simplify attrs = %v", simp.Attrs)
	}
	refine := run.Find("refine")
	if refine.Attrs["candidates"] == "" {
		t.Fatalf("refine attrs = %v", refine.Attrs)
	}
}

func TestCMCScanMetersClusterTime(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(3)), 20, 30)
	q := NewQuery(WithParams(Params{M: 3, K: 3, Eps: 2.5}), WithCMC(), WithWorkers(4))
	tj := traceQuery(t, q, db)
	scan := tj.Root.Find("scan")
	if scan == nil {
		t.Fatal("no scan span")
	}
	for _, key := range []string{"cluster_ms", "chain_ms"} {
		if scan.Attrs[key] == "" {
			t.Fatalf("scan missing %s: %v", key, scan.Attrs)
		}
	}
}

// TestUnsampledQueryAddsNoAllocs pins the zero-alloc contract of the
// instrumentation: the same query costs exactly as many allocations
// through an unsampled tracer as through a bare context, i.e. the
// tracing hooks on the hot path contribute nothing when sampling is off.
func TestUnsampledQueryAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	db := randomDB(rand.New(rand.NewSource(5)), 10, 12)
	q := NewQuery(WithParams(Params{M: 3, K: 2, Eps: 2.5}), WithCMC())
	bare := context.Background()
	tr := trace.NewTracer() // ratio 0: never samples
	traced, sp := tr.Start(context.Background(), "req")
	if sp != nil {
		t.Fatal("ratio-0 tracer sampled")
	}

	run := func(ctx context.Context) func() {
		return func() {
			if _, err := q.Run(ctx, db); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := testing.AllocsPerRun(20, run(bare))
	withTracer := testing.AllocsPerRun(20, run(traced))
	if math.Abs(withTracer-base) > 0.5 {
		t.Fatalf("unsampled tracing changes allocations: bare %.1f vs traced %.1f allocs/op", base, withTracer)
	}
}

// BenchmarkQueryNoTrace is the cross-commit allocation baseline for the
// unsampled query hot path (compare allocs/op against the pre-tracing
// baseline with benchstat).
func BenchmarkQueryNoTrace(b *testing.B) {
	db := randomDB(rand.New(rand.NewSource(5)), 16, 24)
	q := NewQuery(WithParams(Params{M: 3, K: 2, Eps: 2.5}), WithCMC())
	tr := trace.NewTracer()
	ctx, _ := tr.Start(context.Background(), "req") // unsampled: ctx unchanged
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Run(ctx, db); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDeltaGuidelineIsInTheSimplifyStage: choosing δ is a Douglas–Peucker
// run of its own — a fifth of an automatic-δ CuTS* query on the ladder's
// cattle herd when nothing accounted for it — so it belongs to the simplify
// stage's time and span. With it there the three stage times account for
// the wall time of Run; a query that brings its δ runs no guideline, and its
// simplify span says so.
func TestDeltaGuidelineIsInTheSimplifyStage(t *testing.T) {
	db := datagen.Cattle(0.15, 101).Generate()
	best := 0.0
	for attempt := 0; attempt < 3 && best < 0.9; attempt++ { // a ratio of clocks: retry a run something preempted
		var st Stats
		q := NewQuery(WithParams(cattleParams), WithVariant(VariantCuTSStar), WithStats(&st))
		t0 := time.Now()
		if _, err := q.Run(context.Background(), db); err != nil {
			t.Fatal(err)
		}
		wall := time.Since(t0)
		best = math.Max(best, float64(st.TotalTime())/float64(wall))
	}
	if best < 0.9 {
		t.Errorf("simplify + filter + refine account for %.0f %% of Run's wall time, want ≥ 90 %%", 100*best)
	}

	simplifySpan := func(opts ...Option) *trace.SpanJSON {
		q := NewQuery(append([]Option{WithParams(cattleParams), WithVariant(VariantCuTSStar)}, opts...)...)
		sp := traceQuery(t, q, db).Root.Find("simplify")
		if sp == nil {
			t.Fatal("no simplify span")
		}
		return sp
	}
	auto, given := simplifySpan(), simplifySpan(WithDelta(274.2))
	if auto.Attrs["delta_auto"] != "1" || given.Attrs["delta_auto"] != "0" {
		t.Errorf("delta_auto = %q with the guideline, %q with WithDelta; want 1 and 0", auto.Attrs["delta_auto"], given.Attrs["delta_auto"])
	}
	if given.Attrs["delta"] != "274.2" {
		t.Errorf("simplify span reports δ = %s, want the 274.2 it was given", given.Attrs["delta"])
	}
}
