// Package metrics is the repository's observability kernel: atomic
// counters, gauges and fixed-bucket histograms behind a registry that
// exposes everything in the Prometheus text format — with no dependency
// outside the standard library.
//
// The package exists so the serving layer (internal/serve, cmd/convoyd)
// and the load generator (internal/loadgen, cmd/convoyload) speak one
// measurement language: the server registers and updates instruments, the
// generator scrapes and parses the same exposition (ParseText) to verify
// its own request accounting against the server's.
//
// Instruments are float64-valued (Prometheus semantics) and safe for
// concurrent use; updates are lock-free (CAS on the float bits).
// Registration is not hot-path: register once, update forever. A name
// registered twice panics — that is a programming error, exactly like
// defining a Go variable twice.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 updated by CAS on its bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		if f.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

func (f *atomicFloat) set(v float64)  { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) value() float64 { return math.Float64frombits(f.bits.Load()) }

// A Counter is a monotonically increasing value (requests served, ticks
// ingested). Decreasing it is a caller bug; the counter does not check.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.add(1) }

// Add adds v (v must be ≥ 0 for the value to stay a Prometheus counter).
func (c *Counter) Add(v float64) { c.v.add(v) }

// Value returns the current value.
func (c *Counter) Value() float64 { return c.v.value() }

// A Gauge is a value that can go up and down (worker-pool occupancy,
// monitor-table size).
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.set(v) }

// Add adds v (negative to decrease).
func (g *Gauge) Add(v float64) { g.v.add(v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.value() }

// A Histogram counts observations into fixed cumulative-style buckets and
// tracks their sum — enough to expose Prometheus histogram series and to
// estimate quantiles client-side (Quantile). Each bucket additionally
// retains the latest exemplar (ObserveExemplar): one concrete trace ID
// behind the bucket's count, the bridge from "p99 is slow" to "this
// trace is why".
type Histogram struct {
	bounds []float64 // ascending finite upper bounds; +Inf is implicit
	counts []atomic.Int64
	ex     []atomic.Pointer[exemplar]
	sum    atomicFloat
	n      atomic.Int64
}

// exemplar is one sampled observation annotated with its trace ID.
type exemplar struct {
	value   float64
	traceID string
	unix    float64 // seconds since epoch, at observation time
}

// DefLatencyBuckets are upper bounds in seconds that cover sub-millisecond
// cache hits through multi-second discovery runs.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// NewHistogram builds a standalone histogram (not registered anywhere)
// with the given ascending finite upper bounds; nil means
// DefLatencyBuckets. The load generator uses standalone histograms for its
// client-side latency accounting.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
		ex:     make([]atomic.Pointer[exemplar], len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.sum.add(v)
	h.n.Add(1)
}

// ObserveExemplar records one observation and, when traceID is
// non-empty, stamps the observation's bucket with it as the bucket's
// exemplar (latest wins). Exemplars surface only in the OpenMetrics
// exposition (see Registry.Handler); the plain Prometheus text format is
// unchanged.
func (h *Histogram) ObserveExemplar(v float64, traceID string, unixSeconds float64) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.ex[i].Store(&exemplar{value: v, traceID: traceID, unix: unixSeconds})
}

// exemplarFor returns bucket i's exemplar, or nil.
func (h *Histogram) exemplarFor(i int) *exemplar { return h.ex[i].Load() }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.value() }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket holding the target rank — the same estimate a
// Prometheus histogram_quantile would produce. Observations in the +Inf
// bucket clamp to the largest finite bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	cum := 0.0
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if cum+c >= rank || i == len(h.counts)-1 {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1] // +Inf bucket clamps
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			if c == 0 {
				return hi
			}
			frac := (rank - cum) / c
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// snapshot returns cumulative bucket counts aligned with bounds plus the
// +Inf total.
func (h *Histogram) cumulative() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// kind tags a family with its exposition type.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instrument of a family.
type series struct {
	labelValues []string
	c           *Counter
	g           *Gauge
	h           *Histogram
}

// family is one named metric with zero or more label dimensions.
type family struct {
	name, help string
	kind       kind
	labels     []string
	buckets    []float64
	fn         func() float64 // kindGaugeFunc only

	mu     sync.Mutex
	series map[string]*series
}

// with returns (creating on first use) the series for the label values.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), values...)}
		switch f.kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = NewHistogram(f.buckets)
		}
		f.series[key] = s
	}
	return s
}

// sorted returns the family's series ordered by label values.
func (f *family) sorted() []*series {
	f.mu.Lock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labelValues, out[j].labelValues
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// A Registry holds named metric families and renders them as one
// exposition (WriteProm, WriteOpenMetrics, Handler).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var nameOK = func(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) register(name, help string, k kind, labels []string, buckets []float64, fn func() float64) *family {
	if !nameOK(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameOK(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic(fmt.Sprintf("metrics: %q registered twice", name))
	}
	f := &family{
		name: name, help: help, kind: k,
		labels:  append([]string(nil), labels...),
		buckets: buckets, fn: fn,
		series: make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// Counter registers a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil, nil).with(nil).c
}

// Gauge registers a label-less gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil, nil).with(nil).g
}

// GaugeFunc registers a gauge whose value is read at exposition time —
// the natural shape for sizes owned by other structures (feed count,
// cache entries).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGaugeFunc, nil, nil, fn)
}

// Histogram registers a label-less histogram; nil buckets means
// DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, kindHistogram, nil, buckets, nil).with(nil).h
}

// A CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil, nil)}
}

// With returns the counter for the label values, creating it on first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.with(values).c }

// A HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family; nil buckets means
// DefLatencyBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, labels, buckets, nil)}
}

// With returns the histogram for the label values, creating it on first
// use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.with(values).h }

// sortedFamilies snapshots the family list, name-sorted.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
