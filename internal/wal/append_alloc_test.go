//go:build !race

package wal_test

import (
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/wal"
)

// TestLogAppendSteadyStateAllocs pins Append to its one frame buffer: once
// the buffer has held a record of the stream's size, appending allocates
// nothing (it used to allocate the payload and the frame, growing each from
// nil, per record). (Not under -race, whose instrumentation perturbs
// allocation counts.)
func TestLogAppendSteadyStateAllocs(t *testing.T) {
	l, err := wal.Create(t.TempDir(), nil, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	block := feedBlock(0)
	if allocs := testing.AllocsPerRun(200, func() {
		block.T++
		if err := l.Append(block); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a steady-state append allocates %v times, want 0", allocs)
	}
}

// TestReadRecordsSteadyStateAllocs pins the range read to the log's kept
// read buffer: once one read has sized it, a read of a ≈ 600 KB segment
// allocates no buffer — only the few small objects of opening the file and
// walking it, far below one segment's bytes (it used to allocate and zero
// the whole segment per read).
func TestReadRecordsSteadyStateAllocs(t *testing.T) {
	l, err := wal.Create(t.TempDir(), nil, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := int64(0); i < 100; i++ {
		if err := l.Append(feedBlock(i)); err != nil {
			t.Fatal(err)
		}
	}
	nop := func(model.Tick, []byte) error { return nil }
	read := func() {
		if err := l.ReadRecords(10, 90, true, nop); err != nil {
			t.Fatal(err)
		}
	}
	read()
	const reads = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reads {
		read()
	}
	runtime.ReadMemStats(&after)
	if perRead := (after.TotalAlloc - before.TotalAlloc) / reads; perRead > 2048 {
		t.Fatalf("a steady-state read allocates %d bytes, want ≤ 2048 (the segment is %d)", perRead, l.Status().Bytes)
	}
	if allocs := testing.AllocsPerRun(reads, read); allocs > 10 {
		t.Fatalf("a steady-state read allocates %v times, want ≤ 10", allocs)
	}
}
