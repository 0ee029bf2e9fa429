package trace

import (
	"context"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"
)

// Tracer decides which operations become traces and retains the most
// recent completed ones in a bounded ring. A nil *Tracer is valid and
// never samples. Tracers are safe for concurrent use.
type Tracer struct {
	ratio    float64
	ringSize int // the constant ringSize; tests set their own
	maxSpans int // the constant maxSpans; tests set their own

	mu   sync.Mutex
	ring []TraceJSON // newest at (next-1+len)%len once full
	next int
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithSampleRatio sets the head-sampling probability in [0, 1] for
// Start calls that are neither forced nor continuing a sampled remote
// trace. The default 0 records only forced traces (explain requests,
// slow-query capture), making tracing free in steady state.
func WithSampleRatio(r float64) Option {
	return func(t *Tracer) {
		switch {
		case r < 0:
			t.ratio = 0
		case r > 1:
			t.ratio = 1
		default:
			t.ratio = r
		}
	}
}

// A tracer retains the ringSize most recent completed traces, and records
// at most maxSpans spans per trace; spans past the cap are counted as
// dropped.
const (
	ringSize = 256
	maxSpans = 512
)

// NewTracer builds a tracer. With no options it samples nothing except
// forced traces.
func NewTracer(opts ...Option) *Tracer {
	t := &Tracer{ringSize: ringSize, maxSpans: maxSpans}
	for _, o := range opts {
		o(t)
	}
	return t
}

// startCfg carries per-Start options.
type startCfg struct {
	forced        bool
	remote        bool
	remoteTrace   TraceID
	remoteSpan    SpanID
	remoteSampled bool
}

// StartOption configures one Tracer.Start call.
type StartOption func(*startCfg)

// Forced samples the trace regardless of the tracer's ratio. Explain
// requests and slow-query capture use it: the caller has already decided
// the trace is wanted.
func Forced() StartOption {
	return func(c *startCfg) { c.forced = true }
}

// WithRemote continues an incoming trace (a parsed traceparent header):
// the new root adopts the remote trace ID and parents itself under the
// remote span. The remote sampled flag joins the local sampling
// decision — a remote-sampled trace is always recorded locally.
func WithRemote(tid TraceID, sid SpanID, sampled bool) StartOption {
	return func(c *startCfg) {
		if tid.IsZero() {
			return
		}
		c.remote = true
		c.remoteTrace = tid
		c.remoteSpan = sid
		c.remoteSampled = sampled
	}
}

// Start begins a new trace rooted at a span with the given name, if the
// sampling decision says yes; otherwise it returns (ctx, nil) without
// allocating. The returned context carries the root span, so StartSpan
// below it attaches children. The caller must End the root span to
// complete the trace and publish it to the ring.
func (t *Tracer) Start(ctx context.Context, name string, opts ...StartOption) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	// Zero-option fast path: with no Forced/WithRemote in play the
	// sampling decision needs no config struct, keeping an unsampled
	// Start allocation-free (the escaping &c below would cost one).
	if len(opts) == 0 && (t.ratio <= 0 || rand.Float64() >= t.ratio) {
		return ctx, nil
	}
	var c startCfg
	for _, o := range opts {
		o(&c)
	}
	sampled := len(opts) == 0 || c.forced || (c.remote && c.remoteSampled)
	if !sampled && t.ratio > 0 {
		sampled = rand.Float64() < t.ratio
	}
	if !sampled {
		return ctx, nil
	}
	now := time.Now()
	td := &traceData{tracer: t, start: now}
	if c.remote {
		td.id = c.remoteTrace
	} else {
		td.id = newTraceID()
	}
	s := &Span{
		td:     td,
		name:   name,
		id:     newSpanID(),
		parent: c.remoteSpan,
		root:   true,
		start:  now,
	}
	td.rootSpan = s.id
	return context.WithValue(ctx, spanKey{}, s), s
}

// push retires a completed trace into the ring.
func (t *Tracer) push(tj TraceJSON) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < t.ringSize {
		t.ring = append(t.ring, tj)
		t.next = len(t.ring) % t.ringSize
		return
	}
	t.ring[t.next] = tj
	t.next = (t.next + 1) % t.ringSize
}

// Recent returns the retained traces, newest first, keeping only traces
// at least minDur long (0 keeps all).
func (t *Tracer) Recent(minDur time.Duration) []TraceJSON {
	if t == nil {
		return nil
	}
	minMS := durMS(minDur)
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.ring)
	out := make([]TraceJSON, 0, n)
	for i := 0; i < n; i++ {
		// Walk backwards from the newest slot.
		tj := t.ring[((t.next-1-i)%n+n)%n]
		if tj.DurationMS >= minMS {
			out = append(out, tj)
		}
	}
	return out
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func parseFloatOr(s string, def float64) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return def
	}
	return v
}
