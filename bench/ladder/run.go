package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// workload is one rung of the ladder: a named input and traffic shape with
// the reason it exists. run measures it into rc.rec — end-to-end metrics
// when rc.trace is false, per-layer metrics when true.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(rc *runCtx) error
}

// workloads is the ladder, in the order it is reported.
var workloads = []workload{
	{
		Name: "truck-cmc",
		Why:  "276 objects per tick, CMC: snapshotting, grid/dbscan/increment and chaining do the work; simplify does none",
		run:  func(rc *runCtx) error { return runQueries(rc, setupTruck) },
	},
	{
		Name: "cattle-cuts",
		Why:  "13 long trajectories, CuTS*: simplify, filter/refine and decoding a 5.7 MB file dominate; per-tick clustering is negligible",
		run:  func(rc *runCtx) error { return runQueries(rc, setupCattle) },
	},
	{
		Name: "feed-commute",
		Why:  "hot write path: JSON decode, tick-block encode, WAL append, incremental clustering, chaining; per-request overhead is most of a tick",
		run:  runFeed,
	},
	{
		Name: "history-commute",
		Why:  "windowed queries over a feed's WAL beside live appends: the WAL, tick-block codec and clustering kernel read the other way round",
		run:  func(rc *runCtx) error { return runQueries(rc, setupHistory) },
	},
	{
		Name: "sharded-truck",
		Why:  "truck-cmc's exact inputs through a coordinator and two loopback shards: what dist transfer, re-parse and merge cost against one node",
		run:  func(rc *runCtx) error { return runQueries(rc, setupSharded) },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runCtx carries one run's arguments and collects its record.
type runCtx struct {
	seed    int64
	seconds int
	trace   bool
	dir     string // this run's scratch directory; removed when the run ends
	rec     *runRecord
	values  map[string]float64 // metric values by declared name
	spans   *recorder          // the traced pass's spans, written at exit
	cleanup []func() error     // run when the run ends
	nextDir int
}

// budget is the run's measuring time.
func (rc *runCtx) budget() time.Duration { return time.Duration(rc.seconds) * time.Second }

// logf reports progress on standard error; standard output is reserved
// for results.
func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ladder: %s: "+format+"\n", append([]any{rc.rec.Workload}, args...)...)
}

// subdir makes a fresh directory under the run's scratch space.
func (rc *runCtx) subdir(prefix string) (string, error) {
	rc.nextDir++
	d := fmt.Sprintf("%s/%s-%d", rc.dir, prefix, rc.nextDir)
	return d, os.MkdirAll(d, 0o755)
}

// setupRepeats is how many times the untraced pass sets a workload up;
// setup_s is the median, so one slow file-system moment does not decide it.
const setupRepeats = 3

// setUp runs a workload's set-up setupRepeats times (once in the traced
// pass, which reports no setup_s), tearing down all but the last fixture,
// and records the median duration as setup_s.
func setUp[F interface{ close() error }](rc *runCtx, setup func(*runCtx) (F, error)) (fx F, err error) {
	repeats := setupRepeats
	if rc.trace {
		repeats = 1
	}
	var took []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			if err := fx.close(); err != nil {
				return fx, err
			}
		}
		t0 := time.Now()
		if fx, err = setup(rc); err != nil {
			return fx, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	rc.values["setup_s"] = median(took)
	rc.rec.Counts["setups"] = float64(repeats)
	return fx, nil
}

// warmupOps are issued untimed before every timed closed loop.
const warmupOps = 10

// usage is a snapshot of the process's cumulative allocation and CPU
// counters. The benchmark's client shares the process with the servers,
// so its own small cost is inside every delta — identically on both sides
// of any comparison.
type usage struct {
	allocBytes, mallocs uint64
	cpu                 time.Duration
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{m.TotalAlloc, m.Mallocs, tv(ru.Utime) + tv(ru.Stime)}
}

// timedSlices is how many consecutive slices a timed closed loop is cut
// into. Throughput, CPU and allocation per point-tick are each the median
// slice's, so a stall of the machine inside one slice does not decide them.
const timedSlices = 10

// timedLoop runs the workload's timed closed loop — ops 0, 1, … until
// budget has elapsed (and minOps ran) or exactly maxOps ran (maxOps > 0) —
// and fills point_ticks_per_s and the three per-point-tick cost metrics.
// points(i) is the input size of op i. It returns every op's latency.
func (rc *runCtx) timedLoop(budget time.Duration, minOps, maxOps int, op func(i int) bool, points func(i int) int64) []time.Duration {
	var lat []time.Duration
	var perS, cpu, bytes, mallocs []float64
	runtime.GC()
	for s := 0; s < timedSlices; s++ {
		lo, hi := minOps/timedSlices, maxOps/timedSlices
		if s < maxOps%timedSlices {
			hi++
		}
		if maxOps > 0 {
			if hi == 0 {
				continue
			}
			lo = hi // a fixed count: exactly hi ops in this slice
		}
		first := len(lat)
		before := readUsage()
		l, _, wall := closedLoop(wallClock{}, budget/timedSlices, max(lo, 1), hi, func(i int) bool { return op(first + i) })
		after := readUsage()
		lat = append(lat, l...)
		var n float64
		for i := first; i < len(lat); i++ {
			n += float64(points(i))
		}
		if n == 0 {
			continue
		}
		perS = append(perS, n/wall.Seconds())
		cpu = append(cpu, float64(after.cpu-before.cpu)/n)
		bytes = append(bytes, float64(after.allocBytes-before.allocBytes)/n)
		mallocs = append(mallocs, float64(after.mallocs-before.mallocs)/n)
	}
	rc.values["point_ticks_per_s"] = median(perS)
	rc.values["cpu_ns_per_point_tick"] = median(cpu)
	rc.values["alloc_bytes_per_point_tick"] = median(bytes)
	rc.values["allocs_per_point_tick"] = median(mallocs)
	return lat
}

// latencyMetrics fills op_p50_ms / op_p90_ms from the timed sample and
// marks the run invalid when the sample cannot support a p90.
func (rc *runCtx) latencyMetrics(lat []time.Duration) {
	t := summarise(lat)
	rc.rec.Timings["op"] = t
	rc.values["op_p50_ms"] = t.P50
	rc.values["op_p90_ms"] = percentile(sorted(durationsMS(lat)), 90)
	if t.TailPct < 90 {
		rc.rec.Invalid = append(rc.rec.Invalid,
			fmt.Sprintf("op_p90_ms rests on %d samples, fewer than ten beyond p90: run longer", t.N))
	}
}
