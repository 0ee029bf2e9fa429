package wal_test

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/tsio"
	"repro/internal/wal"
)

// TestReadRecordsConcurrentWithAppend drives several range reads at once
// beside a writer, across segment rotations: each read must see an intact
// prefix of the stream — consecutive ticks from the first, every payload a
// valid tick block — however the reads interleave over the log's one kept
// read buffer. Run under -race, it also proves no two reads share it.
func TestReadRecordsConcurrentWithAppend(t *testing.T) {
	l, err := wal.Create(t.TempDir(), nil, wal.Options{Fsync: wal.FsyncNever, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const ticks, readers = 120, 4
	if err := l.Append(feedBlock(0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := int64(1); i < ticks; i++ {
			if err := l.Append(feedBlock(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for finished := false; !finished; {
				select {
				case <-done:
					finished = true // one more read, over the whole stream
				default:
				}
				want := model.Tick(0)
				err := l.ReadRecords(0, ticks, true, func(tick model.Tick, payload []byte) error {
					if tick != want {
						t.Errorf("read tick %d, want %d", tick, want)
					}
					want++
					return tsio.WalkTickBlock(payload, nil)
				})
				if err != nil {
					t.Error(err)
					return
				}
				if finished && want != ticks {
					t.Errorf("a read after the last append saw %d ticks, want %d", want, ticks)
				}
			}
		}()
	}
	wg.Wait()
}

// TestReadRecordsSurvivesCompaction: a read snapshots the segment list, and
// appends made while it runs rotate and compact segments it has not walked
// yet. The read must still walk every record it snapshotted; the compacted
// files must be gone once it ends; and the compacted count must be the one
// of a twin log that nobody read.
func TestReadRecordsSurvivesCompaction(t *testing.T) {
	opt := wal.Options{Fsync: wal.FsyncNever, SegmentBytes: 128, RetainTicks: 5}
	dir := t.TempDir()
	l, err := wal.Create(dir, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	twin, err := wal.Create(t.TempDir(), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	appendBoth := func(from, to int64) {
		for i := from; i <= to; i++ {
			if err := l.Append(blk(i)); err != nil {
				t.Fatal(err)
			}
			if err := twin.Append(blk(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendBoth(1, 20)
	first := model.Tick(l.Status().FirstTick)
	var got []model.Tick
	err = l.ReadRecords(0, 0, false, func(tick model.Tick, payload []byte) error {
		if got == nil {
			appendBoth(21, 60)
		}
		got = append(got, tick)
		return tsio.WalkTickBlock(payload, nil)
	})
	if err != nil {
		t.Fatalf("read beside compacting appends: %v", err)
	}
	if len(got) == 0 || got[0] != first || got[len(got)-1] != 20 {
		t.Fatalf("read ticks %v, want %d…20", got, first)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("read gap: tick %d follows %d", got[i], got[i-1])
		}
	}
	st, want := l.Status(), twin.Status()
	if st.CompactedSegments == 0 || st.CompactedSegments != want.CompactedSegments {
		t.Errorf("compacted %d segments, a log nobody read compacted %d", st.CompactedSegments, want.CompactedSegments)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != st.Segments {
		t.Errorf("%d segment files on disk after the read, Status counts %d", len(files), st.Segments)
	}
}
