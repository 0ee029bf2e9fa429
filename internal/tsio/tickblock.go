package tsio

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/model"
)

// Tick-block binary format ("CTK"): the CTB-style encoding of one ingested
// tick batch — the unit the write-ahead log appends per accepted
// POST /v1/feeds/{name}/ticks batch. Unlike CTB (whole trajectories,
// column-ish), a tick block is row-ish: every object position one tick
// carried, so a log of blocks replays exactly the batches a feed accepted,
// in order. Layout, integers as unsigned varints unless noted:
//
//	magic "CTK1" (4 bytes)
//	t (zig-zag varint; ticks may be negative)
//	numPositions
//	per position: labelLen, label bytes, x, y as IEEE-754 bits (8+8 LE)
//	numEdges (0 when written; see below)
//	per edge: aLen, a bytes, bLen, b bytes, w as IEEE-754 bits (8 LE)
//
// The edge section is a legacy of feeds that carried proximity edges: the
// encoder writes an empty one and the walker validates and skips whatever
// an older log holds, so those logs still replay (positions only).
// Coordinates round-trip bit-exactly. Labels travel as the
// client's strings — dense ObjectIDs are a per-feed artifact that must not
// be persisted (a recovered feed re-interns labels in replay order and
// reproduces the same dense IDs).

// tickBlockMagic identifies the format and its version.
var tickBlockMagic = [4]byte{'C', 'T', 'K', '1'}

// TickPosition is one object's location inside a TickBlock.
type TickPosition struct {
	Label string
	X, Y  float64
}

// TickBlock is the persisted form of one tick batch: the position of every
// tracked object at one tick.
type TickBlock struct {
	T         model.Tick
	Positions []TickPosition
}

// AppendTickBlock appends the CTK encoding of the block to dst and returns
// the extended slice.
func AppendTickBlock(dst []byte, b TickBlock) []byte {
	dst = append(dst, tickBlockMagic[:]...)
	dst = binary.AppendVarint(dst, int64(b.T))
	dst = binary.AppendUvarint(dst, uint64(len(b.Positions)))
	for _, p := range b.Positions {
		dst = binary.AppendUvarint(dst, uint64(len(p.Label)))
		dst = append(dst, p.Label...)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Y))
	}
	return append(dst, 0) // numEdges
}

// tickBlockReader decodes CTK fields off a byte slice with bounds and
// plausibility checks suitable for corrupted or hostile inputs (the WAL
// replay fuzzer feeds this arbitrary bytes).
type tickBlockReader struct {
	data []byte
	off  int
}

func (r *tickBlockReader) remaining() int { return len(r.data) - r.off }

func (r *tickBlockReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("tsio: tick block: truncated %s", what)
	}
	r.off += n
	return v, nil
}

func (r *tickBlockReader) varint(what string) (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("tsio: tick block: truncated %s", what)
	}
	r.off += n
	return v, nil
}

func (r *tickBlockReader) label(what string) ([]byte, error) {
	n, w := binary.Uvarint(r.data[r.off:])
	if w <= 0 {
		return nil, fmt.Errorf("tsio: tick block: truncated %s length", what)
	}
	r.off += w
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("tsio: tick block: %s length %d exceeds %d remaining bytes", what, n, r.remaining())
	}
	b := r.data[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *tickBlockReader) float(what string) (float64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("tsio: tick block: truncated %s", what)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v, nil
}

// header checks the magic and reads the block's tick.
func (r *tickBlockReader) header() (model.Tick, error) {
	if len(r.data) < len(tickBlockMagic) || string(r.data[:len(tickBlockMagic)]) != string(tickBlockMagic[:]) {
		return 0, fmt.Errorf("tsio: tick block: bad magic (want %q)", tickBlockMagic)
	}
	r.off = len(tickBlockMagic)
	t, err := r.varint("tick")
	return model.Tick(t), err
}

// TickBlockTick reads just the tick of a CTK-encoded block (magic and tick
// checked, nothing after them): what a log scan needs to decide whether a
// record is worth more than a validity walk.
func TickBlockTick(data []byte) (model.Tick, error) {
	r := tickBlockReader{data: data}
	return r.header()
}

// TickBlockVisitor receives the contents of one CTK block from
// WalkTickBlock, in encoding order: Block first, then every position.
// Labels are sub-slices of the walked bytes — no
// copy, no allocation — so they are only as stable as that buffer and must
// be copied (or interned) to be kept. A block that turns out damaged has
// already reported everything before the damage; a visitor's state is only
// good once the walk returns nil.
type TickBlockVisitor interface {
	// Block opens the block: its tick and how many positions follow.
	Block(t model.Tick, positions int)
	Position(label []byte, x, y float64)
}

// WalkTickBlock parses one CTK-encoded tick block, reporting its contents
// to v as it goes; with a nil visitor it only validates. It is the one CTK
// parser (DecodeTickBlock is a visitor that materialises): the data must
// contain exactly one block — trailing bytes are an error, since the WAL
// frames each block as one CRC-checked record. Counts are guarded against
// the remaining input before they are reported, and non-finite coordinates
// are rejected like ReadBinary rejects them: a damaged record must fail
// decoding rather than poison a replayed monitor. A legacy edge section is
// held to the same checks (plausible count, finite weights) and skipped.
func WalkTickBlock(data []byte, v TickBlockVisitor) error {
	r := tickBlockReader{data: data}
	t, err := r.header()
	if err != nil {
		return err
	}
	nPos, err := r.uvarint("position count")
	if err != nil {
		return err
	}
	// A position is at least 17 bytes (one-byte label length + two floats),
	// so the count is bounded by the remaining input.
	if nPos > uint64(r.remaining())/17 {
		return fmt.Errorf("tsio: tick block: implausible position count %d", nPos)
	}
	if v != nil {
		v.Block(t, int(nPos))
	}
	for i := uint64(0); i < nPos; i++ {
		label, err := r.label("position label")
		if err != nil {
			return err
		}
		x, err := r.float("position x")
		if err != nil {
			return err
		}
		y, err := r.float("position y")
		if err != nil {
			return err
		}
		if !finite(x) || !finite(y) {
			return fmt.Errorf("tsio: tick block: position %d: non-finite coordinates (%g, %g)", i, x, y)
		}
		if v != nil {
			v.Position(label, x, y)
		}
	}
	nEdges, err := r.uvarint("edge count")
	if err != nil {
		return err
	}
	// An edge is at least 10 bytes (two one-byte label lengths + a float).
	if nEdges > uint64(r.remaining())/10 {
		return fmt.Errorf("tsio: tick block: implausible edge count %d", nEdges)
	}
	for i := uint64(0); i < nEdges; i++ {
		for range 2 {
			if _, err := r.label("edge label"); err != nil {
				return err
			}
		}
		w, err := r.float("edge weight")
		if err != nil {
			return err
		}
		if !finite(w) {
			return fmt.Errorf("tsio: tick block: edge %d: non-finite weight", i)
		}
	}
	if r.remaining() != 0 {
		return fmt.Errorf("tsio: tick block: %d trailing bytes", r.remaining())
	}
	return nil
}

// blockBuilder is the visitor that materialises a TickBlock.
type blockBuilder struct{ b TickBlock }

func (m *blockBuilder) Block(t model.Tick, positions int) {
	m.b.T = t
	if positions > 0 {
		m.b.Positions = make([]TickPosition, 0, positions)
	}
}

func (m *blockBuilder) Position(label []byte, x, y float64) {
	m.b.Positions = append(m.b.Positions, TickPosition{Label: string(label), X: x, Y: y})
}

// DecodeTickBlock parses one CTK-encoded tick block into a TickBlock —
// WalkTickBlock with a visitor that copies everything out. The block
// returned beside an error is a fragment, not to be used.
func DecodeTickBlock(data []byte) (TickBlock, error) {
	var m blockBuilder
	err := WalkTickBlock(data, &m)
	return m.b, err
}
