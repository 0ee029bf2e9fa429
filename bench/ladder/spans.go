package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The benchmark's own span recorder. The traced pass wraps each call into
// a layer's public functions in a span (name, start, end, parent, op id);
// spans stay in memory and are written out when the run ends. Nothing
// inside the program under test is instrumented — that is a later change —
// so every span boundary is a call made from this package.

// layer names what a span timed: one public entry point of a package
// under internal/, or the root of a re-enacted operation.
type layer int32

const (
	lOp layer = iota // the root of one re-enacted operation; its self time is the benchmark's glue, not a layer
	lServeReadFile
	lServeDigest
	lTsioReadBinary
	lModelSnapshotAt
	lModelWindowBuild
	lIncrementTick
	lCoreChain
	lCoreCutsParams
	lSimplifyAll
	lCoreCutsFilter
	lCoreCutsRefine
	lWalReadRange
	lWalAppend
	lWireTicksDecode
	lDistShardRpc
	lDistMerge
)

var layerNames = [...]string{
	lOp:               "op",
	lServeReadFile:    "serve.read_file",
	lServeDigest:      "serve.digest",
	lTsioReadBinary:   "tsio.read_binary",
	lModelSnapshotAt:  "model.snapshot_at",
	lModelWindowBuild: "model.window_build",
	lIncrementTick:    "increment.tick",
	lCoreChain:        "core.chain",
	lCoreCutsParams:   "core.cuts_params",
	lSimplifyAll:      "simplify.all",
	lCoreCutsFilter:   "core.cuts_filter",
	lCoreCutsRefine:   "core.cuts_refine",
	lWalReadRange:     "wal.read_range",
	lWalAppend:        "wal.append",
	lWireTicksDecode:  "wire.ticks_decode",
	lDistShardRpc:     "dist.shard_rpc",
	lDistMerge:        "dist.merge",
}

func (l layer) String() string { return layerNames[l] }

// span is one timed call. Start and End are offsets from the recorder's
// epoch; Parent indexes the causing span (-1 for an op's root). Spans of
// one operation share Op. The struct is pointer-free so tens of thousands
// of live spans cost the garbage collector nothing to scan while the
// measurement runs.
type span struct {
	Layer  layer
	Op     int32
	Parent int32
	Start  time.Duration
	End    time.Duration
}

// recorder collects spans. A nil recorder records nothing, which is how
// the untraced pass and the overhead measurement run the same code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// start opens a span and returns its handle (-1 on a nil recorder). The
// clock is read last, and end reads it first, so the recorder's own work
// falls outside the interval it records — into the parent's self time.
func (r *recorder) start(l layer, op, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Layer: l, Op: int32(op), Parent: int32(parent), End: -1})
	i := len(r.spans) - 1
	r.spans[i].Start = time.Since(r.epoch)
	r.mu.Unlock()
	return i
}

// end closes the span start returned.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// write dumps the spans as JSON: name, op, parent, start and end in
// nanoseconds since the recorder's epoch.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	type spanJSON struct {
		Name   string `json:"name"`
		Op     int32  `json:"op"`
		Parent int32  `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	out := make([]spanJSON, len(r.spans))
	for i, s := range r.spans {
		out[i] = spanJSON{s.Layer.String(), s.Op, s.Parent, int64(s.Start), int64(s.End)}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, for every span, its duration minus the part of that
// interval its direct children cover. Overlapping (parallel) children are
// counted once: the covered part is the union of their intervals clipped
// to the parent.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make([][]iv, len(spans)) // nil for the leaves, which are nearly all
	for _, s := range spans {
		if p := int(s.Parent); p >= 0 && p < len(spans) {
			kids[p] = append(kids[p], iv{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered time.Duration
		edge := s.Start // everything before edge is already counted
		for _, k := range ivs {
			lo, hi := max(k.lo, edge), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums self time by layer over the recorded spans from index
// from on.
func (r *recorder) layerSelf(from int) map[layer]time.Duration {
	out := make(map[layer]time.Duration)
	for i, d := range selfTimes(r.spans) {
		if i >= from {
			out[r.spans[i].Layer] += d
		}
	}
	return out
}
