package tsio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/geom"
	"repro/internal/model"
)

// Binary trajectory format ("CTB"): a compact exact-precision encoding for
// large databases where CSV becomes the bottleneck (the Cattle shape:
// millions of samples). Layout, all integers unsigned varints unless noted:
//
//	magic "CTB1" (4 bytes)
//	numObjects
//	per object:
//	    labelLen, label bytes
//	    numSamples (≥ 1)
//	    firstTick (zig-zag varint; ticks may be negative)
//	    per further sample: tickDelta−1 (ticks are strictly increasing)
//	    per sample: x, y as IEEE-754 bits (8+8 bytes little endian)
//
// Coordinates round-trip bit-exactly; tick deltas make typical regularly
// sampled data one byte per tick.

// binaryMagic identifies the format and its version.
var binaryMagic = [4]byte{'C', 'T', 'B', '1'}

// Decode parses a trajectory database held in memory, in either format: a
// body that opens with the CTB magic is binary, anything else is CSV. Every
// surface that is handed bytes — an upload, a file under the server's data
// dir, convoyfind's -input — tells the two apart here, never by a file name.
func Decode(data []byte) (*model.DB, error) {
	if bytes.HasPrefix(data, binaryMagic[:]) {
		return DecodeBinary(data)
	}
	return ReadCSV(bytes.NewReader(data))
}

// WriteBinary writes the database in CTB format.
func WriteBinary(w io.Writer, db *model.DB) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return fmt.Errorf("tsio: write magic: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putFloat := func(f float64) error {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		_, err := bw.Write(b[:])
		return err
	}
	if err := putUvarint(uint64(db.Len())); err != nil {
		return fmt.Errorf("tsio: %w", err)
	}
	for _, tr := range db.Trajectories() {
		if err := putUvarint(uint64(len(tr.Label))); err != nil {
			return fmt.Errorf("tsio: %w", err)
		}
		if _, err := bw.WriteString(tr.Label); err != nil {
			return fmt.Errorf("tsio: %w", err)
		}
		if err := putUvarint(uint64(tr.Len())); err != nil {
			return fmt.Errorf("tsio: %w", err)
		}
		prev := model.Tick(0)
		for i, s := range tr.Samples {
			if i == 0 {
				if err := putVarint(int64(s.T)); err != nil {
					return fmt.Errorf("tsio: %w", err)
				}
			} else {
				if err := putUvarint(uint64(s.T-prev) - 1); err != nil {
					return fmt.Errorf("tsio: %w", err)
				}
			}
			prev = s.T
			if err := putFloat(s.P.X); err != nil {
				return fmt.Errorf("tsio: %w", err)
			}
			if err := putFloat(s.P.Y); err != nil {
				return fmt.Errorf("tsio: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("tsio: flush: %w", err)
	}
	return nil
}

// ReadBinary parses a CTB stream into a database: it reads the stream to
// its end and hands the bytes to DecodeBinary. (io.Copy, not io.ReadAll: a
// bytes.Reader then lands in the buffer in one exact-size copy.)
func ReadBinary(r io.Reader) (*model.DB, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("tsio: read: %w", err)
	}
	return DecodeBinary(buf.Bytes())
}

// Minimum encoded sizes, which bound every count prefix by the bytes that
// are left before anything is allocated for it: a sample is a one-byte tick
// and two floats, an object a one-byte label length, a one-byte sample
// count and one sample.
const (
	minSampleBytes = 1 + 16
	minObjectBytes = 2 + minSampleBytes
)

// DecodeBinary parses CTB bytes into a database — the one CTB decoder. It
// walks the slice in place: the only allocations are what the database
// keeps (per object its label, samples and trajectory). Corrupted or
// hostile input fails with an error; a count or length the remaining bytes
// cannot hold is rejected before it sizes an allocation.
func DecodeBinary(data []byte) (*model.DB, error) {
	if len(data) < len(binaryMagic) {
		return nil, fmt.Errorf("tsio: read magic: %w", io.ErrUnexpectedEOF)
	}
	if magic := [4]byte(data); magic != binaryMagic {
		return nil, fmt.Errorf("tsio: bad magic %q (want %q)", magic, binaryMagic)
	}
	data = data[len(binaryMagic):]
	// uvarint consumes one varint; n ≤ 0 leaves data alone and fails.
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	numObjects, ok := uvarint()
	if !ok {
		return nil, fmt.Errorf("tsio: object count: truncated or malformed")
	}
	if numObjects > uint64(len(data)/minObjectBytes) {
		return nil, fmt.Errorf("tsio: object count %d exceeds what %d bytes can hold", numObjects, len(data))
	}
	db := model.NewDB()
	for o := uint64(0); o < numObjects; o++ {
		labelLen, ok := uvarint()
		if !ok {
			return nil, fmt.Errorf("tsio: object %d label length: truncated or malformed", o)
		}
		if labelLen > uint64(len(data)) {
			return nil, fmt.Errorf("tsio: object %d: label length %d exceeds the %d bytes left", o, labelLen, len(data))
		}
		label := string(data[:labelLen])
		data = data[labelLen:]
		numSamples, ok := uvarint()
		if !ok {
			return nil, fmt.Errorf("tsio: object %d sample count: truncated or malformed", o)
		}
		if numSamples == 0 {
			return nil, fmt.Errorf("tsio: object %d has no samples", o)
		}
		if numSamples > uint64(len(data)/minSampleBytes) {
			return nil, fmt.Errorf("tsio: object %d: sample count %d exceeds what %d bytes can hold", o, numSamples, len(data))
		}
		samples := make([]model.Sample, numSamples)
		var tick model.Tick
		for i := range samples {
			if i == 0 {
				v, n := binary.Varint(data)
				if n <= 0 {
					return nil, fmt.Errorf("tsio: object %d first tick: truncated or malformed", o)
				}
				data = data[n:]
				tick = model.Tick(v)
			} else {
				d, ok := uvarint()
				if !ok {
					return nil, fmt.Errorf("tsio: object %d tick delta: truncated or malformed", o)
				}
				tick += model.Tick(d) + 1
			}
			if len(data) < 16 {
				return nil, fmt.Errorf("tsio: object %d sample %d: truncated coordinates", o, i)
			}
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			y := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
			data = data[16:]
			samples[i] = model.Sample{T: tick, P: geom.Pt(x, y)}
		}
		// NewTrajectory refuses non-finite coordinates (the format round-trips
		// raw IEEE bits, so NaN and ±Inf payloads decode).
		tr, err := model.NewTrajectory(label, samples)
		if err != nil {
			return nil, fmt.Errorf("tsio: object %d: %w", o, err)
		}
		db.Add(tr)
	}
	return db, nil
}
