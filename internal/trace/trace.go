// Package trace is a minimal, stdlib-only tracing kernel for the convoy
// pipeline: spans with IDs, parents, attributes and durations; a
// context-carried active span; head sampling that is a zero-allocation
// no-op when a trace is not sampled; and a bounded ring buffer of recent
// completed traces for /debug/traces.
//
// The design center is the unsampled hot path. StartSpan on a context
// without an active span returns (ctx, nil) without touching the heap,
// and every *Span method is nil-safe, so instrumented code never branches
// on "tracing on?" — it just calls through:
//
//	ctx, sp := trace.StartSpan(ctx, "filter")
//	sp.Int("lambda", lambda)
//	defer sp.End()
//
// Traces begin only at Tracer.Start (the root): the server middleware and
// the query engine decide sampling there, optionally continuing a remote
// W3C traceparent. Once a root exists in the context, StartSpan children
// attach unconditionally — a sampled trace is recorded whole.
//
// When the root span ends, the trace's spans are assembled into a
// TraceJSON tree and pushed into the tracer's ring, where Recent and
// Handler (GET /debug/traces?min_ms=) expose them. Any ended span can
// also be collected individually (Span.Collect) — that is what powers
// ?explain=true stage breakdowns and the slow-query log.
package trace

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"time"
)

// TraceID identifies one trace: 16 random bytes, rendered as 32 hex
// digits (the W3C trace-id field).
type TraceID [16]byte

// SpanID identifies one span within a trace: 8 random bytes, rendered as
// 16 hex digits (the W3C parent-id field).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

func newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		a, b := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
			id[8+i] = byte(b >> (8 * i))
		}
	}
	return id
}

func newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		a := rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
		}
	}
	return id
}

// Attr is one key/value annotation on a span. Values are stored
// pre-rendered as strings: spans are for humans and JSON, not for math.
type Attr struct {
	Key   string
	Value string
}

// Span is one timed operation inside a trace. The zero of usefulness is
// nil: every method is safe to call on a nil *Span and does nothing, so
// instrumented code needs no sampling branches.
type Span struct {
	td     *traceData
	name   string
	id     SpanID
	parent SpanID
	root   bool
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// TraceID returns the hex trace ID, or "" on a nil span. This is the
// join key across logs, metric exemplars and /debug/traces.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.td.id.String()
}

// IDs returns the raw trace and span IDs (zero values on nil), for
// building an outgoing traceparent header.
func (s *Span) IDs() (TraceID, SpanID) {
	if s == nil {
		return TraceID{}, SpanID{}
	}
	return s.td.id, s.id
}

// setAttr records an attribute, replacing an existing value for the key.
func (s *Span) setAttr(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return s
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	return s
}

// Str sets a string attribute on the span (no-op on nil).
func (s *Span) Str(key, value string) *Span { return s.setAttr(key, value) }

// Int sets an integer attribute on the span (no-op on nil).
func (s *Span) Int(key string, value int64) *Span {
	if s == nil {
		return nil
	}
	return s.setAttr(key, formatInt(value))
}

// Float sets a float attribute on the span (no-op on nil).
func (s *Span) Float(key string, value float64) *Span {
	if s == nil {
		return nil
	}
	return s.setAttr(key, formatFloat(value))
}

// AddFloat accumulates into a float attribute: the new value is the old
// value (0 if unset) plus delta. Parallel stages use it to fold
// cross-worker timings into one number without synthetic spans.
func (s *Span) AddFloat(key string, delta float64) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = formatFloat(parseFloatOr(s.attrs[i].Value, 0) + delta)
			return s
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: formatFloat(delta)})
	return s
}

// End closes the span, recording its duration and attributes into the
// trace. Ending the root span completes the trace: the span tree is
// assembled and pushed into the tracer's ring. End is idempotent and a
// no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.td.record(spanData{
		name:   s.name,
		id:     s.id,
		parent: s.parent,
		start:  s.start,
		end:    end,
		attrs:  attrs,
	})
	if s.root {
		s.td.finish(end)
	}
}

// Collect assembles the completed subtree rooted at s as a TraceJSON
// (Root is s itself; offsets are relative to s's start). It reports
// false until s has ended. Collect is how a caller extracts one span's
// breakdown — the explain profile, the slow-query log — without waiting
// for, or depending on, the ring.
func (s *Span) Collect() (TraceJSON, bool) {
	if s == nil {
		return TraceJSON{}, false
	}
	s.mu.Lock()
	ended := s.ended
	s.mu.Unlock()
	if !ended {
		return TraceJSON{}, false
	}
	return s.td.assembleFrom(s.id, s.start), true
}

// spanKey carries the active *Span in a context. An empty-struct key
// boxes without allocating, keeping FromContext free on the cold path.
type spanKey struct{}

// FromContext returns the active span, or nil when the context carries
// none (the unsampled case). The nil result is directly usable: all
// Span methods accept it.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan starts a child of the context's active span. With no active
// span (the trace is unsampled or tracing is off) it returns (ctx, nil)
// without allocating — the universal instrumentation entry point for
// pipeline stages.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := &Span{
		td:     parent.td,
		name:   name,
		id:     newSpanID(),
		parent: parent.id,
		start:  time.Now(),
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// spanData is one completed span as recorded into its trace.
type spanData struct {
	name   string
	id     SpanID
	parent SpanID
	start  time.Time
	end    time.Time
	attrs  []Attr
}

// traceData collects the completed spans of one live trace. Spans beyond
// the tracer's per-trace cap are counted as dropped rather than stored,
// bounding memory under adversarial fan-out.
type traceData struct {
	tracer   *Tracer
	id       TraceID
	rootSpan SpanID
	start    time.Time

	mu      sync.Mutex
	spans   []spanData
	dropped int
	done    bool
}

func (td *traceData) record(sd spanData) {
	td.mu.Lock()
	defer td.mu.Unlock()
	if td.done {
		return
	}
	if len(td.spans) >= td.tracer.maxSpans {
		td.dropped++
		return
	}
	td.spans = append(td.spans, sd)
}

// finish seals the trace and pushes the assembled tree into the ring.
func (td *traceData) finish(end time.Time) {
	td.mu.Lock()
	if td.done {
		td.mu.Unlock()
		return
	}
	td.done = true
	td.mu.Unlock()
	tj := td.assembleFrom(SpanID{}, td.start)
	tj.DurationMS = durMS(end.Sub(td.start))
	td.tracer.push(tj)
}

// assembleFrom builds the JSON span tree rooted at root (the zero SpanID
// selects the trace's registered root span). When assembling the full
// trace, spans whose parents were never recorded are reported under
// Orphans: a non-empty Orphans list means a child span outlived its
// parent, which the well-formedness tests treat as a bug. When
// assembling a mid-trace subtree (Span.Collect on a non-root span),
// only the subtree is returned — spans outside it are simply elsewhere
// in the still-live trace, not orphans.
func (td *traceData) assembleFrom(root SpanID, base time.Time) TraceJSON {
	subtree := !root.IsZero() && root != td.rootSpan
	if root.IsZero() {
		root = td.rootSpan
	}
	td.mu.Lock()
	spans := make([]spanData, len(td.spans))
	copy(spans, td.spans)
	dropped := td.dropped
	td.mu.Unlock()

	nodes := make(map[SpanID]*SpanJSON, len(spans))
	for _, sd := range spans {
		nodes[sd.id] = spanToJSON(sd, base)
	}
	var rootNode *SpanJSON
	var orphans []SpanJSON
	// Attach children in recording order (End order), which sorts
	// siblings by completion; stage order within a pipeline span follows
	// execution order because stages end in sequence.
	for _, sd := range spans {
		n := nodes[sd.id]
		if sd.id == root {
			rootNode = n
			continue
		}
		if p, ok := nodes[sd.parent]; ok && sd.parent != sd.id {
			p.Children = append(p.Children, n)
			continue
		}
		if !subtree {
			orphans = append(orphans, *n)
		}
	}
	tj := TraceJSON{
		TraceID:      td.id.String(),
		Start:        base,
		SpanCount:    len(spans),
		DroppedSpans: dropped,
	}
	if rootNode != nil {
		tj.Root = rootNode
		tj.DurationMS = rootNode.DurationMS
	}
	if subtree {
		tj.SpanCount = countSpans(rootNode)
	}
	for i := range orphans {
		o := orphans[i]
		o.Children = nil
		tj.Orphans = append(tj.Orphans, o)
	}
	return tj
}

// countSpans counts the spans in a subtree.
func countSpans(n *SpanJSON) int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += countSpans(c)
	}
	return total
}

func spanToJSON(sd spanData, base time.Time) *SpanJSON {
	n := &SpanJSON{
		Name:       sd.name,
		SpanID:     sd.id.String(),
		OffsetMS:   durMS(sd.start.Sub(base)),
		DurationMS: durMS(sd.end.Sub(sd.start)),
	}
	if len(sd.attrs) > 0 {
		n.Attrs = make(map[string]string, len(sd.attrs))
		for _, a := range sd.attrs {
			n.Attrs[a.Key] = a.Value
		}
	}
	return n
}

// SpanJSON is the wire form of one span in a collected trace.
type SpanJSON struct {
	// Name is the span's operation name ("run", "simplify", ...).
	Name string `json:"name"`
	// SpanID is the span's 16-hex-digit ID.
	SpanID string `json:"span_id"`
	// OffsetMS is the span's start relative to the tree root, in ms.
	OffsetMS float64 `json:"offset_ms"`
	// DurationMS is the span's wall time in ms.
	DurationMS float64 `json:"duration_ms"`
	// Attrs are the span's annotations (worker counts, stage sizes, ...).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Children are the span's sub-spans, in completion order.
	Children []*SpanJSON `json:"children,omitempty"`
}

// Find returns the first descendant (including s itself) with the given
// name, depth-first, or nil.
func (s *SpanJSON) Find(name string) *SpanJSON {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// TraceJSON is the wire form of one completed trace (or collected
// subtree): what GET /debug/traces serves and the slow-query log embeds.
type TraceJSON struct {
	// TraceID is the trace's 32-hex-digit ID.
	TraceID string `json:"trace_id"`
	// Start is the wall-clock start of the tree root.
	Start time.Time `json:"start"`
	// DurationMS is the tree root's wall time in ms.
	DurationMS float64 `json:"duration_ms"`
	// SpanCount is the number of spans recorded (excludes dropped).
	SpanCount int `json:"span_count"`
	// DroppedSpans counts spans discarded past the per-trace cap.
	DroppedSpans int `json:"dropped_spans,omitempty"`
	// Root is the span tree; nil only if the root span was dropped.
	Root *SpanJSON `json:"root,omitempty"`
	// Orphans are spans whose parents were never recorded — evidence of
	// a span leak. Always empty for a healthy pipeline.
	Orphans []SpanJSON `json:"orphans,omitempty"`
}

func durMS(d time.Duration) float64 {
	if d < 0 {
		d = 0
	}
	return float64(d) / float64(time.Millisecond)
}
