package wal_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/tsio"
	"repro/internal/wal"
)

// feedBlock is a tick block the size of one bench/ladder feed-commute tick:
// 285 labelled positions (≈ 6 KB framed).
func feedBlock(t int64) tsio.TickBlock {
	b := tsio.TickBlock{T: model.Tick(t), Positions: make([]tsio.TickPosition, 285)}
	for i := range b.Positions {
		b.Positions[i] = tsio.TickPosition{Label: fmt.Sprintf("c%03d", i), X: float64(i) + 0.125*float64(t), Y: 1e3 - float64(i)}
	}
	return b
}

// TestAppendReusesFrameBuffer: records framed one after another in the
// log's one buffer — growing, shrinking, growing again — read back intact.
func TestAppendReusesFrameBuffer(t *testing.T) {
	l, err := wal.Create(t.TempDir(), nil, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := []tsio.TickBlock{blk(1), feedBlock(2), blk(3), {T: 4}, feedBlock(5)}
	for _, b := range want {
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d blocks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].T != want[i].T || len(got[i].Positions) != len(want[i].Positions) ||
			(len(want[i].Positions) > 0 && !reflect.DeepEqual(got[i].Positions, want[i].Positions)) {
			t.Errorf("block %d read back as %+v, want %+v", i, got[i], want[i])
		}
	}
}

// BenchmarkLogAppend is the feed's WAL layer on one ladder-sized tick under
// the ladder's own policy (FsyncNever): encode, frame, write(2).
func BenchmarkLogAppend(b *testing.B) {
	l, err := wal.Create(b.TempDir(), nil, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	block := feedBlock(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block.T = model.Tick(i)
		if err := l.Append(block); err != nil {
			b.Fatal(err)
		}
	}
}
