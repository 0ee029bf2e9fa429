package metrics

import (
	"runtime"
	"sync"
	"time"
)

// memSampler caches one runtime.MemStats snapshot for a short TTL so
// that exposition-time gauges never trigger more than one
// stop-the-world ReadMemStats per second, however many scrapers and
// gauges read through it.
type memSampler struct {
	mu   sync.Mutex
	last time.Time
	ms   runtime.MemStats
}

func (s *memSampler) read() (heapAlloc, gcPauseSeconds float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if time.Since(s.last) > time.Second || s.last.IsZero() {
		runtime.ReadMemStats(&s.ms)
		s.last = time.Now()
	}
	return float64(s.ms.HeapAlloc), float64(s.ms.PauseTotalNs) / 1e9
}

// RegisterRuntime registers Go runtime health gauges on the registry —
// goroutine count, GOMAXPROCS, live heap bytes, and cumulative GC pause
// seconds — so load reports and dashboards capture runtime health next
// to request counters. Values are read at exposition time; memory stats
// are sampled at most once per second. Registering the same registry
// twice panics, like any duplicate metric registration.
func RegisterRuntime(r *Registry) {
	s := &memSampler{}
	r.GaugeFunc("go_goroutines",
		"Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_gomaxprocs",
		"Value of GOMAXPROCS: the scheduler's OS-thread parallelism cap.",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
	r.GaugeFunc("go_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 { h, _ := s.read(); return h })
	r.GaugeFunc("go_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause seconds since process start.",
		func() float64 { _, p := s.read(); return p })
}
