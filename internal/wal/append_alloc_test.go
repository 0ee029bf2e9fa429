//go:build !race

package wal_test

import (
	"testing"

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
