package feed

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// TestFirstDuplicateMatchesCore holds the feed's stamp-based duplicate
// check to core.FirstDuplicateID: the same answer on random batches,
// ascending or shuffled, with and without a repeat, batch after batch on
// one feed whose label table grows.
func TestFirstDuplicateMatchesCore(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := &Feed{}
	dups := 0
	for batch := 0; batch < 500; batch++ {
		for len(f.labels) < 8+batch {
			f.labels = append(f.labels, "")
		}
		ids := r.Perm(len(f.labels))[:1+r.Intn(8)]
		if r.Intn(2) == 0 {
			ids = append(ids, ids[r.Intn(len(ids))])
		}
		if r.Intn(2) == 0 {
			slices.Sort(ids)
		} else {
			r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		}
		gotID, got := f.firstDuplicate(ids)
		wantID, want := core.FirstDuplicateID(ids)
		if got != want || gotID != wantID {
			t.Fatalf("batch %d %v: firstDuplicate = (%d, %v), core.FirstDuplicateID = (%d, %v)", batch, ids, gotID, got, wantID, want)
		}
		if got {
			dups++
		}
	}
	if dups == 0 {
		t.Fatal("no batch had a duplicate")
	}
}

// TestUnsortedDuplicateRejected: a batch listing an ID twice, out of order,
// is refused with the duplicate's label, and the labels it brought roll
// back.
func TestUnsortedDuplicateRejected(t *testing.T) {
	r := NewRegistry(Config{})
	defer r.CloseAll()
	f, err := r.Create("f", core.Params{M: 2, K: 2, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := f.Ingest(ctx, []wire.TickBatch{pair(1)}); err != nil {
		t.Fatal(err)
	}
	_, err = f.Ingest(ctx, []wire.TickBatch{pair(2, wire.Position{ID: "c"}, wire.Position{ID: "a", X: 3})})
	if err == nil || !strings.Contains(err.Error(), `tick 2: duplicate id "a"`) {
		t.Fatalf("ingest = %v, want the duplicate id \"a\" refused", err)
	}
	st, err := f.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != 2 {
		t.Fatalf("%d objects after the refused batch, want 2", st.Objects)
	}
}
