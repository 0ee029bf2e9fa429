package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"repro/internal/model"
	"repro/internal/tsio"
)

// Segment file layout: an 8-byte header ("CWALSEG1") followed by records,
// each framed as
//
//	u32 LE payload length
//	u32 LE CRC-32C (Castagnoli) of the payload
//	payload (one CTK tick block)
//
// The frame is what makes a torn tail detectable: a crash mid-append
// leaves a record whose length outruns the file, or whose CRC disagrees
// with its bytes, and everything from that offset on is discarded by
// recovery. Damage before the tail is corruption, not a crash artifact,
// and fails the scan instead.

var segmentHeader = []byte("CWALSEG1")

const recordHeaderSize = 8

// maxRecordBytes guards length prefixes against corrupted headers before
// any allocation happens (a real record is bounded by the server's request
// body cap, far below this).
const maxRecordBytes = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segmentName formats the file name of the segment with the given index.
func segmentName(index uint64) string { return fmt.Sprintf("%08d.wal", index) }

// frameRecord fills in the header of a record built in place — buf is
// recordHeaderSize reserved bytes followed by the payload — and returns buf.
func frameRecord(buf []byte) []byte {
	payload := buf[recordHeaderSize:]
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcTable))
	return buf
}

// maxKeptFrame bounds the record buffer a Log keeps between appends: an
// occasional huge batch must not pin its size for the life of the feed.
const maxKeptFrame = 1 << 20

// segmentMeta is the in-memory summary of one segment file.
type segmentMeta struct {
	index   uint64
	path    string
	bytes   int64 // valid bytes (header + intact records)
	records int64
	first   model.Tick
	last    model.Tick
	hasTick bool
}

// note folds one record's tick into the segment's range.
func (m *segmentMeta) note(t model.Tick) {
	if !m.hasTick {
		m.first, m.last, m.hasTick = t, t, true
		return
	}
	if t < m.first {
		m.first = t
	}
	if t > m.last {
		m.last = t
	}
}

// scanResult reports what scanSegment found.
type scanResult struct {
	meta segmentMeta
	// tornBytes is the length of the invalid tail (0 for an intact file).
	tornBytes int64
}

// scanSegment validates one segment file: header, then record by record
// until the end or the first damage. With allowTorn (the final segment of
// a log), damage marks the torn tail and the scan reports how many bytes
// to drop; without it (a sealed segment), damage is corruption and an
// error. The whole file is read — the CRCs are only worth their bytes if
// someone checks them.
func scanSegment(path string, index uint64, allowTorn bool) (scanResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return scanResult{}, fmt.Errorf("wal: read segment: %w", err)
	}
	res := scanResult{meta: segmentMeta{index: index, path: path}}
	if len(data) < len(segmentHeader) || string(data[:len(segmentHeader)]) != string(segmentHeader) {
		return scanResult{}, fmt.Errorf("wal: segment %s: bad header", path)
	}
	off := int64(len(segmentHeader))
	torn := func(format string, args ...any) (scanResult, error) {
		if !allowTorn {
			return scanResult{}, fmt.Errorf("wal: segment %s: corrupt at offset %d: %s", path, off, fmt.Sprintf(format, args...))
		}
		res.meta.bytes = off
		res.tornBytes = int64(len(data)) - off
		return res, nil
	}
	for off < int64(len(data)) {
		rest := int64(len(data)) - off
		if rest < recordHeaderSize {
			return torn("short record header (%d bytes)", rest)
		}
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecordBytes || n > rest-recordHeaderSize {
			return torn("record length %d outruns file", n)
		}
		payload := data[off+recordHeaderSize : off+recordHeaderSize+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return torn("record CRC mismatch")
		}
		blk, derr := tsio.DecodeTickBlock(payload)
		if derr != nil {
			// A CRC-valid but undecodable payload means the bytes were
			// damaged in a way the checksum happens to bless — still not a
			// record this log wrote.
			return torn("record payload: %v", derr)
		}
		res.meta.note(blk.T)
		res.meta.records++
		off += recordHeaderSize + n
	}
	res.meta.bytes = off
	return res, nil
}

// corruptAt is the error for damage found at a record offset of a segment
// — by the frame checks here, or by whoever decodes the payload.
func corruptAt(path string, off int64, err error) error {
	return fmt.Errorf("wal: segment %s: corrupt at offset %d: %w", path, off, err)
}

// readPrefix reads the first n bytes of a segment file — its validated
// prefix, so a read of the active segment never loads, let alone chases,
// bytes appended after the snapshot was taken (fewer if the file is
// shorter: a file cut below its scanned length is judged by what is left
// of it). buf is the read buffer, grown as needed and handed back so a
// multi-segment read allocates (and zeroes) it once.
func readPrefix(path string, n int64, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	buf = slices.Grow(buf[:0], int(n))[:n]
	got, err := io.ReadFull(f, buf)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		err = nil
	}
	return buf[:got], err
}

// walkRecords streams one segment's records through fn in order: each
// record's offset and its CRC-checked payload, a view into data.
func walkRecords(path string, data []byte, fn func(off int64, payload []byte) error) error {
	if len(data) < len(segmentHeader) || string(data[:len(segmentHeader)]) != string(segmentHeader) {
		return fmt.Errorf("wal: segment %s: bad header", path)
	}
	off := int64(len(segmentHeader))
	for off < int64(len(data)) {
		rest := int64(len(data)) - off
		if rest < recordHeaderSize {
			return corruptAt(path, off, errors.New("short record header"))
		}
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecordBytes || n > rest-recordHeaderSize {
			return corruptAt(path, off, fmt.Errorf("record length %d outruns file", n))
		}
		payload := data[off+recordHeaderSize : off+recordHeaderSize+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return corruptAt(path, off, errors.New("record CRC mismatch"))
		}
		if err := fn(off, payload); err != nil {
			return err
		}
		off += recordHeaderSize + n
	}
	return nil
}
