package wire

import "repro/internal/trace"

// ExplainJSON is a query's timing profile: the discovery run's wall time
// broken down into its pipeline stages, derived from the run's span tree.
// TraceID correlates the profile with /debug/traces, the slow-query log
// and the latency histogram exemplars on /metrics.
type ExplainJSON struct {
	TraceID string `json:"trace_id"`
	// TotalMS is the wall time from the start of the load (of the discovery
	// run, where there is no load stage) to the end of the run. Stages lie
	// inside it one after another, so their sum never exceeds it.
	TotalMS float64 `json:"total_ms"`
	// Stages lists the pipeline stages in execution order — load, for a
	// batch query; then scan for CMC, or simplify, filter, refine for the
	// CuTS family — with each stage's wall time and annotations (where the
	// dataset came from, fan-out, candidate counts, accumulated
	// cluster/chain milliseconds, …).
	Stages []ExplainStageJSON `json:"stages"`
}

// ExplainStageJSON is one pipeline stage of a query profile.
type ExplainStageJSON struct {
	Name       string            `json:"name"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// ExplainFromTrace derives a query profile from a completed trace: the
// first span named "run" (the core entry point) provides the total, its
// direct children the stages. A "load" span — the server's step before the
// run: read, digest, decode, or a resident dataset re-verified — is listed
// as the first stage, and the total then runs from its start to the run's
// end. ok is false when the trace has no run span — a trace that never
// reached the core (e.g. an unparseable database).
func ExplainFromTrace(tj trace.TraceJSON) (ExplainJSON, bool) {
	if tj.Root == nil {
		return ExplainJSON{}, false
	}
	run := tj.Root.Find("run")
	if run == nil {
		return ExplainJSON{}, false
	}
	out := ExplainJSON{TraceID: tj.TraceID, TotalMS: run.DurationMS}
	stages := run.Children
	if load := tj.Root.Find("load"); load != nil {
		out.TotalMS = run.OffsetMS + run.DurationMS - load.OffsetMS
		stages = append([]*trace.SpanJSON{load}, stages...)
	}
	out.Stages = make([]ExplainStageJSON, 0, len(stages))
	for _, c := range stages {
		out.Stages = append(out.Stages, ExplainStageJSON{Name: c.Name, DurationMS: c.DurationMS, Attrs: c.Attrs})
	}
	return out, true
}
