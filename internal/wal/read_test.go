package wal_test

import (
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
