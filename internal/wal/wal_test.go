package wal_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/tsio"
	"repro/internal/wal"
)

// blk builds a deterministic tick block for tick t: a couple of positions.
func blk(t int64) tsio.TickBlock {
	return tsio.TickBlock{
		T: model.Tick(t),
		Positions: []tsio.TickPosition{
			{Label: fmt.Sprintf("a%d", t), X: float64(t), Y: -float64(t)},
			{Label: "b", X: 0.5, Y: 1.5},
		},
	}
}

// collect replays the whole log into a slice.
func collect(t *testing.T, l *wal.Log) []tsio.TickBlock {
	t.Helper()
	var out []tsio.TickBlock
	if err := l.Replay(func(b tsio.TickBlock) error {
		out = append(out, b)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want wal.FsyncPolicy
	}{
		{"", wal.FsyncAlways},
		{"always", wal.FsyncAlways},
		{"Interval", wal.FsyncInterval},
		{"never", wal.FsyncNever},
	} {
		got, err := wal.ParseFsyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" {
			back, err := wal.ParseFsyncPolicy(got.String())
			if err != nil || back != got {
				t.Errorf("round trip %v: got %v, %v", got, back, err)
			}
		}
	}
	if _, err := wal.ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy(sometimes): want error")
	}
}

func TestCreateOpenRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "feed")
	if wal.Exists(dir, wal.Options{}) {
		t.Fatal("Exists on a fresh dir")
	}
	meta := []byte(`{"name":"fleet"}`)
	l, err := wal.Create(dir, meta, wal.Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if !wal.Exists(dir, wal.Options{}) {
		t.Error("Exists after Create = false")
	}
	if _, err := wal.Create(dir, meta, wal.Options{}); err == nil {
		t.Error("second Create: want error")
	}
	var want []tsio.TickBlock
	for i := int64(1); i <= 5; i++ {
		b := blk(i)
		if err := l.Append(b); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		want = append(want, b)
	}
	st := l.Status()
	if st.Records != 5 || st.Segments != 1 || !st.HasTicks || st.FirstTick != 1 || st.LastTick != 5 {
		t.Errorf("Status = %+v; want 5 records in 1 segment over ticks [1,5]", st)
	}
	if st.AppendedRecords != 5 || st.AppendedBytes <= 0 {
		t.Errorf("Status appended = %d records / %d bytes", st.AppendedRecords, st.AppendedBytes)
	}
	if st.LastSync.IsZero() {
		t.Error("Status.LastSync zero under FsyncAlways")
	}
	if got := collect(t, l); !reflect.DeepEqual(got, want) {
		t.Errorf("Replay before close: got %d blocks, want %d identical", len(got), len(want))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := l.Append(blk(6)); err == nil {
		t.Error("Append after Close: want error")
	}

	l2, meta2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l2.Close()
	if string(meta2) != string(meta) {
		t.Errorf("Open meta = %q, want %q", meta2, meta)
	}
	st2 := l2.Status()
	if st2.Records != 5 || st2.TruncatedBytes != 0 {
		t.Errorf("reopened Status = %+v; want 5 records, clean tail", st2)
	}
	if got := collect(t, l2); !reflect.DeepEqual(got, want) {
		t.Errorf("Replay after reopen diverged")
	}
	// The reopened log keeps appending into the tail segment.
	if err := l2.Append(blk(6)); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if got := collect(t, l2); len(got) != 6 || got[5].T != 6 {
		t.Errorf("after reopen+append: %d blocks, tail %v", len(got), got[len(got)-1].T)
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, _, err := wal.Open(filepath.Join(t.TempDir(), "nope"), wal.Options{}); err == nil {
		t.Error("Open on a missing dir: want error")
	}
}

// tailSegment returns the path of the newest segment file in dir.
func tailSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segment files in %s (%v)", dir, err)
	}
	return matches[len(matches)-1]
}

func TestOpenTruncatesTornTail(t *testing.T) {
	for name, tc := range map[string]struct {
		tear func([]byte) []byte
		keep int64 // intact records surviving recovery
	}{
		// A crash mid-append leaves the final record cut short...
		"cut": {func(data []byte) []byte { return data[:len(data)-3] }, 3},
		// ...or a stub of a frame after the last complete record...
		"garbage": {func(data []byte) []byte { return append(data, 0xde, 0xad, 0xbe) }, 4},
		// ...or a full-length record whose bytes never all hit the disk.
		"crc": {func(data []byte) []byte {
			data[len(data)-1] ^= 0xff
			return data
		}, 3},
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "feed")
			l, err := wal.Create(dir, nil, wal.Options{})
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			for i := int64(1); i <= 4; i++ {
				if err := l.Append(blk(i)); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			seg := tailSegment(t, dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatalf("read segment: %v", err)
			}
			if err := os.WriteFile(seg, tc.tear(data), 0o644); err != nil {
				t.Fatalf("tear segment: %v", err)
			}
			l2, _, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatalf("Open over torn tail: %v", err)
			}
			defer l2.Close()
			st := l2.Status()
			if st.TruncatedBytes == 0 {
				t.Error("Status.TruncatedBytes = 0; want > 0")
			}
			got := collect(t, l2)
			if int64(len(got)) != tc.keep || got[len(got)-1].T != model.Tick(tc.keep) {
				t.Fatalf("replay after torn-tail recovery: %d blocks, want %d ending at tick %d", len(got), tc.keep, tc.keep)
			}
			// The log must be appendable again, ending exactly on a record
			// boundary: recover, append, recover once more.
			if err := l2.Append(blk(9)); err != nil {
				t.Fatalf("Append after recovery: %v", err)
			}
			if err := l2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			l3, _, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatalf("second Open: %v", err)
			}
			defer l3.Close()
			if st := l3.Status(); st.Records != tc.keep+1 || st.TruncatedBytes != 0 {
				t.Errorf("after recover+append+reopen: %+v; want %d records, clean tail", st, tc.keep+1)
			}
		})
	}
}

func TestOpenRejectsMidHistoryCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "feed")
	// Tiny segments: every append seals the previous segment.
	l, err := wal.Create(dir, nil, wal.Options{SegmentBytes: 16})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := int64(1); i <= 3; i++ {
		if err := l.Append(blk(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	first := filepath.Join(dir, "00000001.wal")
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatalf("read sealed segment: %v", err)
	}
	data[len(data)/2] ^= 0xff // damage inside a sealed segment's record
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatalf("corrupt segment: %v", err)
	}
	if _, _, err := wal.Open(dir, wal.Options{}); err == nil {
		t.Fatal("Open over a corrupt sealed segment: want error, got nil")
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "feed")
	l, err := wal.Create(dir, nil, wal.Options{SegmentBytes: 16, RetainTicks: 4})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer l.Close()
	for i := int64(1); i <= 20; i++ {
		if err := l.Append(blk(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	st := l.Status()
	if st.CompactedSegments == 0 {
		t.Fatalf("Status = %+v; want compaction with 16-byte segments and RetainTicks=4", st)
	}
	if st.LastTick != 20 {
		t.Errorf("LastTick = %d, want 20", st.LastTick)
	}
	// The horizon is lastTick−RetainTicks = 16; every retained segment's
	// newest record is at or past it, so the oldest retained tick can be at
	// most one whole segment older than the horizon.
	if st.FirstTick <= 10 {
		t.Errorf("FirstTick = %d; want the pre-horizon prefix compacted away", st.FirstTick)
	}
	got := collect(t, l)
	if len(got) == 0 || got[len(got)-1].T != 20 {
		t.Fatalf("replay after compaction: %d blocks", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].T != got[i-1].T+1 {
			t.Errorf("replay gap: tick %d follows %d", got[i].T, got[i-1].T)
		}
	}
	if int64(got[0].T) != st.FirstTick {
		t.Errorf("replay starts at %d, Status.FirstTick = %d", got[0].T, st.FirstTick)
	}
}

func TestReadRangeBounded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "feed")
	l, err := wal.Create(dir, nil, wal.Options{SegmentBytes: 64})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer l.Close()
	for i := int64(1); i <= 12; i++ {
		if err := l.Append(blk(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	var got []int64
	err = l.ReadRange(4, 9, true, func(b tsio.TickBlock) error {
		got = append(got, int64(b.T))
		return nil
	})
	if err != nil {
		t.Fatalf("ReadRange: %v", err)
	}
	want := []int64{4, 5, 6, 7, 8, 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ReadRange(4,9) = %v, want %v", got, want)
	}
}

// TestReadRecordsWindowAndDamage pins the record-level range read: the
// in-window records come out as the raw payloads ReadRange decodes; bytes
// a concurrent writer left past the validated length of the active segment
// are never looked at; and damage in an out-of-window record of a touched
// segment — a flipped payload byte (CRC), or a CRC-blessed payload that is
// not a tick block — fails ReadRecords and ReadRange alike, with the same
// segment/offset wrapping, rather than being skipped unread.
func TestReadRecordsWindowAndDamage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "feed")
	// blk(i) frames to 52 bytes (53 from tick 10): ticks 1–3, 4–6, 7–9,
	// 10–11 and 12 land in five segments.
	l, err := wal.Create(dir, nil, wal.Options{SegmentBytes: 166})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer l.Close()
	for i := int64(1); i <= 12; i++ {
		if err := l.Append(blk(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if st := l.Status(); st.Segments != 5 {
		t.Fatalf("log has %d segments, the test assumes 5", st.Segments)
	}
	// A torn frame past the active segment's validated length.
	active, err := os.OpenFile(tailSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := active.Write([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	active.Close()

	var want []tsio.TickBlock
	if err := l.ReadRange(5, 11, true, func(b tsio.TickBlock) error {
		want = append(want, b)
		return nil
	}); err != nil {
		t.Fatalf("ReadRange: %v", err)
	}
	var got []tsio.TickBlock
	if err := l.ReadRecords(5, 11, true, func(tick model.Tick, payload []byte) error {
		b, err := tsio.DecodeTickBlock(payload)
		if err != nil || b.T != tick {
			t.Errorf("record at tick %d decodes to tick %d, %v", tick, b.T, err)
		}
		got = append(got, b)
		return nil
	}); err != nil {
		t.Fatalf("ReadRecords: %v", err)
	}
	if len(got) != 7 || !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadRecords(5,11) = %+v\nReadRange = %+v", got, want)
	}

	// Segment 2 holds ticks 4–6: tick 4 is outside [5, 11] but its segment
	// is touched. Its record starts right after the 8-byte segment header.
	seg := filepath.Join(dir, "00000002.wal")
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	readBoth := func() (records, blocks error) {
		nop := func(model.Tick, []byte) error { return nil }
		return l.ReadRecords(5, 11, true, nop), l.ReadRange(5, 11, true, func(tsio.TickBlock) error { return nil })
	}
	damaged := append([]byte(nil), pristine...)
	damaged[8+8+10] ^= 0xff // a payload byte of tick 4's record
	if err := os.WriteFile(seg, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	recErr, blkErr := readBoth()
	wantMsg := "wal: segment " + seg + ": corrupt at offset 8: record CRC mismatch"
	if recErr == nil || blkErr == nil || recErr.Error() != wantMsg || blkErr.Error() != wantMsg {
		t.Fatalf("flipped out-of-window byte:\nReadRecords: %v\nReadRange:   %v\nwant:        %s", recErr, blkErr, wantMsg)
	}
	// Same record, payload replaced by non-CTK bytes with a matching CRC.
	n := binary.LittleEndian.Uint32(pristine[8:])
	blessed := append([]byte(nil), pristine...)
	copy(blessed[16:16+n], bytes.Repeat([]byte{'x'}, int(n)))
	binary.LittleEndian.PutUint32(blessed[12:], crc32.Checksum(blessed[16:16+n], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(seg, blessed, 0o644); err != nil {
		t.Fatal(err)
	}
	recErr, blkErr = readBoth()
	wantMsg = "wal: segment " + seg + ": corrupt at offset 8: tsio: tick block: bad magic"
	if recErr == nil || blkErr == nil || recErr.Error() != blkErr.Error() || !strings.HasPrefix(recErr.Error(), wantMsg) {
		t.Fatalf("CRC-blessed garbage payload:\nReadRecords: %v\nReadRange:   %v\nwant prefix: %s", recErr, blkErr, wantMsg)
	}
	if err := os.WriteFile(seg, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if recErr, blkErr = readBoth(); recErr != nil || blkErr != nil {
		t.Fatalf("restored segment: %v, %v", recErr, blkErr)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, entries, truncated, err := wal.OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if len(entries) != 0 || truncated != 0 {
		t.Fatalf("fresh journal: %d entries, %d truncated", len(entries), truncated)
	}
	want := []string{`{"op":"monitor_add","id":"m1"}`, `{"op":"incremental","on":true}`, `{"op":"monitor_remove","id":"m1"}`}
	for _, e := range want {
		if err := j.Append([]byte(e)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Append([]byte("two\nlines")); err == nil {
		t.Error("Append with a newline: want error")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	j2, entries, truncated, err := wal.OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if truncated != 0 {
		t.Errorf("clean reopen truncated %d bytes", truncated)
	}
	if len(entries) != len(want) {
		t.Fatalf("reopen: %d entries, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		if string(e) != want[i] {
			t.Errorf("entry %d = %q, want %q", i, e, want[i])
		}
	}
}

func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := wal.OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if err := j.Append([]byte("keep")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, "spec.jnl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.WriteString("deadbeef tor"); err != nil { // no newline: torn
		t.Fatalf("tear: %v", err)
	}
	f.Close()
	j2, entries, truncated, err := wal.OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer j2.Close()
	if truncated == 0 {
		t.Error("truncated = 0; want > 0")
	}
	if len(entries) != 1 || string(entries[0]) != "keep" {
		t.Fatalf("entries = %q, want [keep]", entries)
	}
}

func TestJournalRejectsMidHistoryCorruption(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := wal.OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	for _, e := range []string{"first", "second"} {
		if err := j.Append([]byte(e)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, "spec.jnl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[10] ^= 0xff // inside the first line, which is not the tail
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	if _, _, _, err := wal.OpenJournal(dir, wal.Options{}); err == nil {
		t.Fatal("reopen over corrupt first line: want error, got nil")
	}
}

// countingObserver tallies the Observer callbacks (concurrency-safe like
// the contract demands: interval syncs arrive from another goroutine).
type countingObserver struct {
	mu       sync.Mutex
	records  int
	bytes    int
	fsyncs   int
	segments int
}

func (o *countingObserver) OnAppend(records, bytes int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.records += records
	o.bytes += bytes
}

func (o *countingObserver) OnFsync(time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.fsyncs++
}

func (o *countingObserver) OnSegments(delta int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.segments += delta
}

func TestObserverMeters(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "feed")
	obs := &countingObserver{}
	l, err := wal.Create(dir, nil, wal.Options{SegmentBytes: 64, Observer: obs})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := int64(1); i <= 8; i++ {
		if err := l.Append(blk(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st := l.Status()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.records != 8 || int64(obs.bytes) != st.AppendedBytes {
		t.Errorf("observer saw %d records / %d bytes; status %d / %d",
			obs.records, obs.bytes, st.AppendedRecords, st.AppendedBytes)
	}
	if obs.fsyncs == 0 {
		t.Error("observer saw no fsyncs under FsyncAlways")
	}
	// Every created segment was matched by Close's release.
	if obs.segments != 0 {
		t.Errorf("net segment delta after Close = %d, want 0", obs.segments)
	}
}

func TestIntervalFsyncLoop(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "feed")
	l, err := wal.Create(dir, nil, wal.Options{Fsync: wal.FsyncInterval, FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := l.Append(blk(1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Status().LastSync.IsZero() {
		if time.Now().After(deadline) {
			t.Fatal("interval sync never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// FuzzWALReplay feeds arbitrary bytes in as a log's only segment file and
// demands the open/replay path never panics, never accepts damage silently
// mid-history, and — when it does accept the file — settles into a state a
// second open reproduces exactly (recovery is idempotent).
func FuzzWALReplay(f *testing.F) {
	// Seeds: an intact two-record segment, plus truncations and bit flips
	// at interesting offsets.
	intact := func() []byte {
		dir := filepath.Join(f.TempDir(), "seed")
		l, err := wal.Create(dir, nil, wal.Options{})
		if err != nil {
			f.Fatal(err)
		}
		if err := l.Append(blk(1)); err != nil {
			f.Fatal(err)
		}
		if err := l.Append(blk(2)); err != nil {
			f.Fatal(err)
		}
		if err := l.Close(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "00000001.wal"))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}()
	f.Add(intact)
	f.Add(intact[:len(intact)-5])
	f.Add(intact[:9])
	f.Add([]byte("CWALSEG1"))
	f.Add([]byte{})
	flipped := append([]byte(nil), intact...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := filepath.Join(t.TempDir(), "feed")
		l, err := wal.Create(dir, nil, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, "00000001.wal")
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l1, _, err := wal.Open(dir, wal.Options{})
		if err != nil {
			return // rejected: fine, as long as nothing panicked
		}
		var first []tsio.TickBlock
		if err := l1.Replay(func(b tsio.TickBlock) error {
			first = append(first, b)
			return nil
		}); err != nil {
			t.Fatalf("Open accepted the segment but Replay failed: %v", err)
		}
		st := l1.Status()
		if int(st.Records) != len(first) {
			t.Fatalf("Status.Records = %d, replay yielded %d", st.Records, len(first))
		}
		if err := l1.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// Recovery already truncated any torn tail; a second open must agree
		// with the first and truncate nothing further.
		l2, _, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatalf("second Open after recovery: %v", err)
		}
		defer l2.Close()
		if st2 := l2.Status(); st2.TruncatedBytes != 0 || st2.Records != st.Records {
			t.Fatalf("second open: %+v; first settled on %d records", st2, st.Records)
		}
		var second []tsio.TickBlock
		if err := l2.Replay(func(b tsio.TickBlock) error {
			second = append(second, b)
			return nil
		}); err != nil {
			t.Fatalf("second Replay: %v", err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatal("replay diverged between opens")
		}
	})
}
