package main

// The ladder's vocabulary: every metric and workload name BENCHMARK.json
// declares is defined here, and a unit test holds the two in step.

// metricDef names one metric with its unit and which direction is better.
// Bound (end-to-end only) is the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them from an untraced pass. "op" is the workload's
// unit of work: one cold query on the four query workloads, one posted
// tick on feed-commute.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "op_p90_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "point_ticks_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "cpu_ns_per_point_tick", Unit: "ns", Better: lower, Bound: 0.25},
	{Name: "alloc_bytes_per_point_tick", Unit: "B", Better: lower, Bound: 0.25},
	{Name: "allocs_per_point_tick", Unit: "count", Better: lower, Bound: 0.25},
}

// perLayer are the traced pass's metrics, one layer (package under
// internal/) per prefix. A workload reports 0 for a layer that is not on
// its path.
var perLayer = []metricDef{
	{Name: "tsio.read_binary_ms", Unit: "ms", Better: lower},
	{Name: "tsio.tickblock_encode_us", Unit: "us", Better: lower},
	{Name: "tsio.tickblock_decode_us", Unit: "us", Better: lower},
	{Name: "tsio.tickblock_bytes", Unit: "B", Better: lower},
	{Name: "model.snapshot_at_ms", Unit: "ms", Better: lower},
	{Name: "model.window_build_ms", Unit: "ms", Better: lower},
	{Name: "grid.build_us", Unit: "us", Better: lower},
	{Name: "grid.within_ns", Unit: "ns", Better: lower},
	{Name: "dbscan.cluster_ms", Unit: "ms", Better: lower},
	{Name: "increment.tick_ms", Unit: "ms", Better: lower},
	{Name: "increment.full_share", Unit: "ratio", Better: lower},
	{Name: "increment.reclustered_share", Unit: "ratio", Better: lower},
	{Name: "core.cmc_ms", Unit: "ms", Better: lower},
	{Name: "core.chain_ms", Unit: "ms", Better: lower},
	{Name: "core.cluster_passes", Unit: "count", Better: lower},
	{Name: "core.cmc_coverage", Unit: "ratio", Better: higher},
	{Name: "core.cuts_params_ms", Unit: "ms", Better: lower},
	{Name: "core.cuts_filter_ms", Unit: "ms", Better: lower},
	{Name: "core.cuts_refine_ms", Unit: "ms", Better: lower},
	{Name: "core.candidates", Unit: "count", Better: lower},
	{Name: "core.refine_units", Unit: "count", Better: lower},
	{Name: "core.filter_precision", Unit: "ratio", Better: higher},
	{Name: "core.partition_merge_ms", Unit: "ms", Better: lower},
	{Name: "simplify.all_ms", Unit: "ms", Better: lower},
	{Name: "simplify.vertex_kept_share", Unit: "ratio", Better: lower},
	{Name: "wal.append_us", Unit: "us", Better: lower},
	{Name: "wal.append_fsync_us", Unit: "us", Better: lower},
	{Name: "wal.read_range_ms", Unit: "ms", Better: lower},
	{Name: "wal.replay_ms", Unit: "ms", Better: lower},
	{Name: "wal.bytes_per_tick", Unit: "B", Better: lower},
	{Name: "wal.bytes_per_point_tick", Unit: "B", Better: lower},
	{Name: "wal.segments", Unit: "count", Better: lower},
	{Name: "wire.ticks_decode_us", Unit: "us", Better: lower},
	{Name: "serve.http_floor_us", Unit: "us", Better: lower},
	{Name: "serve.read_file_ms", Unit: "ms", Better: lower},
	{Name: "serve.digest_ms", Unit: "ms", Better: lower},
	{Name: "serve.query_self_ms", Unit: "ms", Better: lower},
	{Name: "serve.tick_self_us", Unit: "us", Better: lower},
	{Name: "serve.ingest_ticks_per_s", Unit: "1/s", Better: higher},
	{Name: "serve.ingest_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.ingest_p99_ms", Unit: "ms", Better: lower},
	{Name: "serve.recovery_ms", Unit: "ms", Better: lower},
	{Name: "dist.transfer_bytes_per_query", Unit: "B", Better: lower},
	{Name: "dist.shard_rpc_ms", Unit: "ms", Better: lower},
	{Name: "dist.merge_ms", Unit: "ms", Better: lower},
	{Name: "trace.overhead_share", Unit: "ratio", Better: lower},
	{Name: "trace.coverage", Unit: "ratio", Better: higher},
	{Name: "gen.sched_lag_p99_ms", Unit: "ms", Better: lower},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is everything one run of one workload produced. The last line
// of standard output carries only Correct, Attempted, Failed and Metrics
// (the driver's contract); result files carry the whole record.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Timings holds, for every latency sample behind a metric, its sample
	// count, median and the highest percentile the count supports.
	Timings map[string]timing `json:"timings,omitempty"`
	// Counts are the op and input counts (exactly repeating for one seed).
	Counts map[string]float64 `json:"counts,omitempty"`
	// Digests are the SHA-256 of the generated inputs.
	Digests map[string]string `json:"digests,omitempty"`
	// Invalid lists why the run must not be used as a measurement (empty
	// on a valid run): the generator fell behind, a tail was thin, …
	Invalid []string `json:"invalid,omitempty"`
	// Errors samples the first few failed ops.
	Errors []string `json:"errors,omitempty"`
}

func newRecord(w string, seed int64, seconds int, trace bool) *runRecord {
	return &runRecord{
		Workload: w, Seed: seed, Seconds: seconds, Trace: trace,
		Metrics: map[string]metricValue{}, Timings: map[string]timing{},
		Counts: map[string]float64{}, Digests: map[string]string{},
	}
}

// fail counts one failed op and keeps the first few reasons.
func (r *runRecord) fail(err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// finish fills every declared metric the run did not set with 0 (a layer
// off this workload's path), stamps units from the definitions and drops
// anything undeclared, so the output always carries exactly the declared
// set.
func (r *runRecord) finish(values map[string]float64) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}
