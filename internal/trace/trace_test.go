package trace

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestUnsampledIsNoop(t *testing.T) {
	tr := NewTracer() // ratio 0: nothing samples without Forced
	ctx, root := tr.Start(context.Background(), "root")
	if root != nil {
		t.Fatalf("ratio-0 tracer sampled a trace")
	}
	if ctx != context.Background() {
		t.Fatalf("unsampled Start changed the context")
	}
	cctx, child := StartSpan(ctx, "child")
	if child != nil || cctx != ctx {
		t.Fatalf("StartSpan without active span must be identity")
	}
	// All span methods must be nil-safe.
	child.Str("k", "v").Int("n", 1).Float("f", 2).AddFloat("a", 3)
	child.End()
	if _, ok := child.Collect(); ok {
		t.Fatalf("nil span collected")
	}
	if got := child.TraceID(); got != "" {
		t.Fatalf("nil span TraceID = %q", got)
	}
}

func TestUnsampledZeroAllocs(t *testing.T) {
	tr := NewTracer()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := tr.Start(ctx, "root")
		_, sp2 := StartSpan(c, "child")
		sp2.Int("n", 1)
		sp2.End()
		sp.Str("k", "v")
		sp.End()
		if FromContext(c) != nil {
			t.Fatal("unexpected span")
		}
	})
	if allocs != 0 {
		t.Fatalf("unsampled tracing path allocates: %v allocs/op", allocs)
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "root", Forced())
	if sp != nil || ctx != context.Background() {
		t.Fatalf("nil tracer must not sample")
	}
	if got := tr.Recent(0); got != nil {
		t.Fatalf("nil tracer Recent = %v", got)
	}
}

func TestSpanTreeAssembly(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.Start(context.Background(), "req", Forced())
	if root == nil {
		t.Fatal("forced trace not sampled")
	}
	root.Str("route", "/v1/query")

	cctx, run := StartSpan(ctx, "run")
	run.Int("m", 3)
	_, s1 := StartSpan(cctx, "simplify")
	s1.End()
	_, s2 := StartSpan(cctx, "filter")
	s2.AddFloat("cluster_ms", 1.5)
	s2.AddFloat("cluster_ms", 0.5)
	s2.End()
	run.End()

	// Collect the mid-trace subtree before the trace completes.
	sub, ok := run.Collect()
	if !ok {
		t.Fatal("ended span did not collect")
	}
	if sub.Root == nil || sub.Root.Name != "run" || len(sub.Root.Children) != 2 {
		t.Fatalf("subtree = %+v", sub.Root)
	}
	if sub.SpanCount != 3 {
		t.Fatalf("subtree span count = %d, want 3", sub.SpanCount)
	}
	if got := sub.Root.Find("filter").Attrs["cluster_ms"]; got != "2" {
		t.Fatalf("AddFloat accumulated %q, want 2", got)
	}
	if len(sub.Orphans) != 0 {
		t.Fatalf("mid-trace collect invented orphans: %+v", sub.Orphans)
	}

	root.End()
	root.End() // idempotent

	recent := tr.Recent(0)
	if len(recent) != 1 {
		t.Fatalf("ring has %d traces, want 1", len(recent))
	}
	tj := recent[0]
	if tj.Root == nil || tj.Root.Name != "req" {
		t.Fatalf("trace root = %+v", tj.Root)
	}
	if tj.SpanCount != 4 || len(tj.Orphans) != 0 {
		t.Fatalf("spans=%d orphans=%v", tj.SpanCount, tj.Orphans)
	}
	if tj.TraceID != root.TraceID() || len(tj.TraceID) != 32 {
		t.Fatalf("trace id %q vs %q", tj.TraceID, root.TraceID())
	}
	runNode := tj.Root.Find("run")
	if runNode == nil || len(runNode.Children) != 2 {
		t.Fatalf("run node = %+v", runNode)
	}
	if runNode.Children[0].Name != "simplify" || runNode.Children[1].Name != "filter" {
		t.Fatalf("stage order = %v, %v", runNode.Children[0].Name, runNode.Children[1].Name)
	}
	if n := len(tr.Recent(0)); n != 1 {
		t.Fatalf("%d traces recorded, want 1", n)
	}
}

func TestAttrReplaceAndTypes(t *testing.T) {
	tr := NewTracer()
	_, sp := tr.Start(context.Background(), "s", Forced())
	sp.Str("k", "a").Str("k", "b").Int("n", 7).Float("f", 1.25)
	sp.End()
	tj, _ := sp.Collect()
	if got := tj.Root.Attrs["k"]; got != "b" {
		t.Fatalf("replace: got %q", got)
	}
	if tj.Root.Attrs["n"] != "7" || tj.Root.Attrs["f"] != "1.25" {
		t.Fatalf("attrs = %v", tj.Root.Attrs)
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewTracer()
	tr.ringSize = 3
	for i := 0; i < 5; i++ {
		_, sp := tr.Start(context.Background(), "t", Forced())
		sp.Int("i", int64(i))
		sp.End()
	}
	recent := tr.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("ring kept %d, want 3", len(recent))
	}
	// Newest first: 4, 3, 2.
	for i, want := range []string{"4", "3", "2"} {
		if got := recent[i].Root.Attrs["i"]; got != want {
			t.Fatalf("recent[%d] = %s, want %s", i, got, want)
		}
	}
}

func TestMaxSpansDropped(t *testing.T) {
	tr := NewTracer()
	tr.maxSpans = 2
	ctx, root := tr.Start(context.Background(), "root", Forced())
	for i := 0; i < 5; i++ {
		_, sp := StartSpan(ctx, "child")
		sp.End()
	}
	root.End()
	tj := tr.Recent(0)[0]
	if tj.SpanCount != 2 || tj.DroppedSpans != 4 {
		t.Fatalf("spans=%d dropped=%d, want 2/4", tj.SpanCount, tj.DroppedSpans)
	}
}

func TestRecentMinDuration(t *testing.T) {
	tr := NewTracer()
	_, fast := tr.Start(context.Background(), "fast", Forced())
	fast.End()
	_, slow := tr.Start(context.Background(), "slow", Forced())
	time.Sleep(5 * time.Millisecond)
	slow.End()
	got := tr.Recent(2 * time.Millisecond)
	if len(got) != 1 || got[0].Root.Name != "slow" {
		t.Fatalf("min-duration filter kept %+v", got)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer()
	_, sp := tr.Start(context.Background(), "client", Forced())
	tid, sid := sp.IDs()
	h := FormatTraceparent(tid, sid, true)
	gtid, gsid, sampled, ok := ParseTraceparent(h)
	if !ok || gtid != tid || gsid != sid || !sampled {
		t.Fatalf("round trip failed: %q -> %v %v %v %v", h, gtid, gsid, sampled, ok)
	}
	h0 := FormatTraceparent(tid, sid, false)
	if _, _, sampled, ok = ParseTraceparent(h0); !ok || sampled {
		t.Fatalf("unsampled flag round trip: %q", h0)
	}
	sp.End()
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // reserved version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01",
	}
	for _, h := range bad {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
	// A future version with appended fields keeps the 00 layout.
	tid, sid, sampled, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future")
	if !ok || tid.IsZero() || sid.IsZero() || !sampled {
		t.Fatalf("future version rejected")
	}
}

func TestContinueRemote(t *testing.T) {
	tid, sid, sampled, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("parse failed")
	}
	tr := NewTracer()
	_, sp := tr.Start(context.Background(), "server", WithRemote(tid, sid, sampled))
	if sp == nil {
		t.Fatal("remote-sampled trace not continued")
	}
	if sp.TraceID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id not adopted: %s", sp.TraceID())
	}
	sp.End()
	tj := tr.Recent(0)[0]
	if tj.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("ring trace id = %s", tj.TraceID)
	}
	if len(tj.Orphans) != 0 || tj.Root == nil {
		t.Fatalf("remote-parented root misassembled: %+v", tj)
	}

	// Remote present but unsampled, local ratio 0: not recorded.
	_, sp2 := tr.Start(context.Background(), "server", WithRemote(tid, sid, false))
	if sp2 != nil {
		t.Fatal("unsampled remote trace recorded")
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	tr.maxSpans = 2048
	ctx, root := tr.Start(context.Background(), "root", Forced())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c, sp := StartSpan(ctx, "work")
				sp.Int("g", int64(g))
				_, inner := StartSpan(c, "inner")
				inner.AddFloat("ms", 0.1)
				inner.End()
				sp.End()
			}
			root.AddFloat("total", 1)
		}(g)
	}
	wg.Wait()
	root.End()
	tj := tr.Recent(0)[0]
	if len(tj.Orphans) != 0 {
		t.Fatalf("concurrent spans orphaned: %d", len(tj.Orphans))
	}
	if tj.SpanCount != 1+8*50*2 {
		t.Fatalf("span count = %d", tj.SpanCount)
	}
	if got := tj.Root.Attrs["total"]; got != "8" {
		t.Fatalf("AddFloat under concurrency = %q", got)
	}
}

func TestSampleRatio(t *testing.T) {
	always := NewTracer(WithSampleRatio(1))
	_, sp := always.Start(context.Background(), "t")
	if sp == nil {
		t.Fatal("ratio-1 tracer did not sample")
	}
	sp.End()
	never := NewTracer(WithSampleRatio(0))
	if _, sp := never.Start(context.Background(), "t"); sp != nil {
		t.Fatal("ratio-0 tracer sampled")
	}
	clamped := NewTracer(WithSampleRatio(7))
	if _, sp := clamped.Start(context.Background(), "t"); sp == nil {
		t.Fatal("ratio clamps to 1")
	} else {
		sp.End()
	}
}
