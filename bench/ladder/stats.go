package main

import (
	"math"
	"sort"
	"time"
)

// The ladder's own order statistics. They live here, not in internal/expr
// or internal/loadgen, so a later change to a library cannot move the
// instrument that judges it.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending sample: the smallest value with at least p percent of the
// sample at or below it. It is a value that was observed, never an
// interpolation.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// median of an unsorted sample (mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder are the percentiles a timing may be reported at, ascending.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

// tailPercentile picks the highest percentile of tailLadder that still has
// at least ten samples beyond it in a sample of n — the tail a run of
// that length can support. 0 means not even p75 is supported (n < 40).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		// Integer arithmetic on tenths of a percent keeps 99.9 exact.
		beyond := n * (1000 - int(math.Round(p*10))) / 1000
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so
// a spread computed here equals the one the acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadShare is the inter-quartile distance as a share of the median —
// the run-to-run spread every bound is judged against.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// ms and us convert durations for reporting.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts a latency sample to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// timing summarises one latency sample the way every ladder timing is
// reported: sample count, median, and the highest supported tail.
type timing struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail_ms"`
}

func summarise(lat []time.Duration) timing {
	asc := sorted(durationsMS(lat))
	t := timing{N: len(asc), P50: percentile(asc, 50), TailPct: tailPercentile(len(asc))}
	if t.TailPct > 0 {
		t.Tail = percentile(asc, t.TailPct)
	}
	return t
}
