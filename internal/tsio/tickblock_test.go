package tsio

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/model"
)

type refBlockReader struct {
	data []byte
	off  int
}

func (r *refBlockReader) remaining() int { return len(r.data) - r.off }

func (r *refBlockReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("tsio: tick block: truncated %s", what)
	}
	r.off += n
	return v, nil
}

func (r *refBlockReader) varint(what string) (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("tsio: tick block: truncated %s", what)
	}
	r.off += n
	return v, nil
}

func (r *refBlockReader) str(what string) (string, error) {
	n, err := r.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > uint64(r.remaining()) {
		return "", fmt.Errorf("tsio: tick block: %s length %d exceeds %d remaining bytes", what, n, r.remaining())
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *refBlockReader) float(what string) (float64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("tsio: tick block: truncated %s", what)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v, nil
}

// refDecodeTickBlock is the materialising decoder as it stood before the
// walker existed, kept as the walker's independent reference; the edge
// section it still parses and checks is discarded, as the walker skips it.
func refDecodeTickBlock(data []byte) (TickBlock, error) {
	var b TickBlock
	if len(data) < len(tickBlockMagic) || string(data[:len(tickBlockMagic)]) != string(tickBlockMagic[:]) {
		return b, fmt.Errorf("tsio: tick block: bad magic (want %q)", tickBlockMagic)
	}
	r := &refBlockReader{data: data, off: len(tickBlockMagic)}
	t, err := r.varint("tick")
	if err != nil {
		return b, err
	}
	b.T = model.Tick(t)
	nPos, err := r.uvarint("position count")
	if err != nil {
		return b, err
	}
	// A position is at least 17 bytes (one-byte label length + two floats),
	// so the count is bounded by the remaining input.
	if nPos > uint64(r.remaining())/17 {
		return b, fmt.Errorf("tsio: tick block: implausible position count %d", nPos)
	}
	if nPos > 0 {
		b.Positions = make([]TickPosition, 0, nPos)
	}
	for i := uint64(0); i < nPos; i++ {
		var p TickPosition
		if p.Label, err = r.str("position label"); err != nil {
			return b, err
		}
		if p.X, err = r.float("position x"); err != nil {
			return b, err
		}
		if p.Y, err = r.float("position y"); err != nil {
			return b, err
		}
		if !finite(p.X) || !finite(p.Y) {
			return b, fmt.Errorf("tsio: tick block: position %d: non-finite coordinates (%g, %g)", i, p.X, p.Y)
		}
		b.Positions = append(b.Positions, p)
	}
	nEdges, err := r.uvarint("edge count")
	if err != nil {
		return b, err
	}
	// An edge is at least 10 bytes (two one-byte label lengths + a float).
	if nEdges > uint64(r.remaining())/10 {
		return b, fmt.Errorf("tsio: tick block: implausible edge count %d", nEdges)
	}
	for i := uint64(0); i < nEdges; i++ {
		var e legacyEdge
		if e.a, err = r.str("edge label"); err != nil {
			return b, err
		}
		if e.b, err = r.str("edge label"); err != nil {
			return b, err
		}
		if e.w, err = r.float("edge weight"); err != nil {
			return b, err
		}
		if !finite(e.w) {
			return b, fmt.Errorf("tsio: tick block: edge %d: non-finite weight", i)
		}
	}
	if r.remaining() != 0 {
		return b, fmt.Errorf("tsio: tick block: %d trailing bytes", r.remaining())
	}
	return b, nil
}

// legacyEdge is one proximity edge of the edge section older logs hold.
type legacyEdge struct {
	a, b string
	w    float64
}

// withLegacyEdges encodes b the way a log that carried proximity edges
// wrote it: the positions as AppendTickBlock writes them, then a non-empty
// edge section in place of its zero count.
func withLegacyEdges(b TickBlock, edges []legacyEdge) []byte {
	data := AppendTickBlock(nil, b)
	data = binary.AppendUvarint(data[:len(data)-1], uint64(len(edges)))
	for _, e := range edges {
		data = binary.AppendUvarint(data, uint64(len(e.a)))
		data = append(data, e.a...)
		data = binary.AppendUvarint(data, uint64(len(e.b)))
		data = append(data, e.b...)
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(e.w))
	}
	return data
}

// recorder is a visitor that keeps everything it is told, copying labels.
type recorder struct {
	b         TickBlock
	positions int // the announced count
}

func (r *recorder) Block(t model.Tick, n int) { r.b.T, r.positions = t, n }
func (r *recorder) Position(label []byte, x, y float64) {
	r.b.Positions = append(r.b.Positions, TickPosition{Label: string(label), X: x, Y: y})
}

// sampleBlock is a block with a negative tick, an empty label and a
// multi-byte one; sampleEdges is the edge section an older log would have
// held beside it.
var (
	sampleBlock = TickBlock{
		T: -7,
		Positions: []TickPosition{
			{Label: "a", X: 1.5, Y: -2},
			{Label: "", X: 0, Y: math.SmallestNonzeroFloat64},
			{Label: "véhicule-17", X: -1e300, Y: 1e-300},
		},
	}
	sampleEdges = []legacyEdge{{"a", "véhicule-17", 0.25}, {"x", "y", 0}}
)

// checkWalkAgrees asserts that, on data, the walker, the materialising
// decoder on top of it, the validity-only walk and the header read all
// agree with the reference decoder: same accept/reject, same error, same
// values.
func checkWalkAgrees(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := refDecodeTickBlock(data)
	var rec recorder
	walkErr := WalkTickBlock(data, &rec)
	got, gotErr := DecodeTickBlock(data)
	validErr := WalkTickBlock(data, nil)
	for name, err := range map[string]error{"walk": walkErr, "decode": gotErr, "validate": validErr} {
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s error = %v, reference %v", name, err, wantErr)
		}
	}
	tick, tickErr := TickBlockTick(data)
	if wantErr != nil {
		return // what a rejected block left behind is nobody's contract
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, reference %+v", got, want)
	}
	if tickErr != nil || tick != want.T {
		t.Fatalf("header tick = %d, %v; want %d", tick, tickErr, want.T)
	}
	if rec.positions != len(want.Positions) {
		t.Fatalf("announced %d positions; block has %d", rec.positions, len(want.Positions))
	}
	if !reflect.DeepEqual(rec.b.Positions, want.Positions) && len(want.Positions) > 0 {
		t.Fatalf("walked positions %+v, reference %+v", rec.b.Positions, want.Positions)
	}
	if again := AppendTickBlock(nil, got); string(again) != string(data) && len(data) < 1<<10 {
		// Not every accepted encoding is canonical (varints may be padded),
		// but a re-encoding must decode to the same block.
		back, err := DecodeTickBlock(again)
		if err != nil || !reflect.DeepEqual(back, got) {
			t.Fatalf("re-encoded block decodes to %+v, %v; want %+v", back, err, got)
		}
	}
}

func TestTickBlockRoundTrip(t *testing.T) {
	for _, b := range []TickBlock{{}, {T: model.MaxTick}, {T: model.MinTick}, sampleBlock} {
		data := AppendTickBlock(nil, b)
		got, err := DecodeTickBlock(data)
		if err != nil || !reflect.DeepEqual(got, b) {
			t.Fatalf("round trip of %+v = %+v, %v", b, got, err)
		}
		checkWalkAgrees(t, data)
	}
}

// A block an older log wrote with a non-empty edge section walks clean to
// its positions alone; the section is still held to the checks it always
// had — a count the remaining bytes cannot hold, or a NaN weight, refuses
// the block.
func TestTickBlockLegacyEdges(t *testing.T) {
	for _, b := range []TickBlock{sampleBlock, {T: 4}} {
		data := withLegacyEdges(b, sampleEdges)
		got, err := DecodeTickBlock(data)
		if err != nil || !reflect.DeepEqual(got, b) {
			t.Fatalf("block with edges decodes to %+v, %v; want %+v", got, err, b)
		}
		var v labelKeeper
		if err := WalkTickBlock(data, &v); err != nil || len(v.kept) != len(b.Positions) {
			t.Fatalf("walk visited %d labels, %v; want the %d position labels", len(v.kept), err, len(b.Positions))
		}
		checkWalkAgrees(t, data)
	}

	huge := AppendTickBlock(nil, TickBlock{T: 1})
	huge = binary.AppendUvarint(huge[:len(huge)-1], 1<<40)
	nan := withLegacyEdges(TickBlock{T: 1}, []legacyEdge{{"a", "b", math.NaN()}})
	for name, data := range map[string][]byte{"implausible count": huge, "NaN weight": nan} {
		if _, err := DecodeTickBlock(data); err == nil {
			t.Fatalf("%s: block accepted", name)
		}
		if err := WalkTickBlock(data, nil); err == nil {
			t.Fatalf("%s: validity walk accepted the block", name)
		}
		checkWalkAgrees(t, data)
	}
}

// The walker hands out labels as views of the input, not copies: wiping
// the input wipes every label a visitor kept.
func TestWalkTickBlockLabelsAlias(t *testing.T) {
	data := AppendTickBlock(nil, sampleBlock)
	var v labelKeeper
	if err := WalkTickBlock(data, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.kept) != 3 {
		t.Fatalf("kept %d labels, want 3", len(v.kept))
	}
	clear(data)
	for i, l := range v.kept {
		for _, c := range l {
			if c != 0 {
				t.Fatalf("label %d survived wiping the input: a copy, not a view", i)
			}
		}
	}
}

type labelKeeper struct{ kept [][]byte }

func (v *labelKeeper) Block(model.Tick, int)           {}
func (v *labelKeeper) Position(l []byte, _, _ float64) { v.kept = append(v.kept, l) }

// FuzzTickBlockWalk: whatever the bytes, the walker (reporting, and
// validating only), DecodeTickBlock on top of it and TickBlockTick accept
// and reject exactly what the pre-walker decoder did, with the same error
// and the same values.
func FuzzTickBlockWalk(f *testing.F) {
	valid := withLegacyEdges(sampleBlock, sampleEdges)
	f.Add(valid)
	f.Add(AppendTickBlock(nil, sampleBlock))
	f.Add(AppendTickBlock(nil, TickBlock{T: 3}))
	f.Add(valid[:len(valid)-1])                  // truncated weight
	f.Add(valid[:7])                             // truncated inside the positions
	f.Add(append(append([]byte{}, valid...), 0)) // trailing byte
	f.Add([]byte("CTK1"))
	f.Add([]byte("CTK2\x00\x00\x00"))
	f.Add([]byte("CTK1\x00\xff\xff\xff\xff\xff\xff\xff\xff\x7f")) // huge position count
	f.Add([]byte("CTK1\x00\x00\xff\xff\xff\xff\x0f"))             // huge edge count
	f.Add([]byte("CTK1\x00\x01\x05ab"))                           // label outruns the block
	nan := AppendTickBlock(nil, TickBlock{Positions: []TickPosition{{Label: "n", X: math.NaN()}}})
	f.Add(nan)
	f.Add(withLegacyEdges(TickBlock{}, []legacyEdge{{"a", "b", math.Inf(1)}}))
	f.Fuzz(func(t *testing.T, data []byte) { checkWalkAgrees(t, data) })
}
