//go:build !race

package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"runtime"
	"testing"
)

// TestResidentQueryAllocatesNoFileBytes: a path query over a resident
// dataset neither reads the file into memory nor decodes it. The window is
// one tick wide so the miner has next to nothing to allocate, and what is
// left is the shell — which held 3.4 × the file per query (the bytes and the
// decoded samples) when every miss re-read and re-parsed it.
func TestResidentQueryAllocatesNoFileBytes(t *testing.T) {
	dir := t.TempDir()
	db, file := truckCTB(t, dir, "truck.ctb", 1)
	if len(file) < 2<<20 {
		t.Fatalf("fixture is %d bytes, want a file of 2 MB or more", len(file))
	}
	e := newQueryEngine(Config{DataDir: dir, CacheEntries: -1}.withDefaults())
	lo, _, _ := db.TimeRange()
	k := int64(1)
	query := func() {
		k++ // new parameters: nothing but the dataset can be reused
		req := pathQuery("truck.ctb", 3, k, 8, "cmc")
		req.From, req.To = &lo, &lo
		if _, err := e.run(context.Background(), nil, req); err != nil {
			t.Fatal(err)
		}
	}
	query() // parses it
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	if got := e.cfg.metrics.datasetLoads.With("resident").Value(); got != runs {
		t.Fatalf("%g of %d repeat queries found the dataset resident", got, runs)
	}
	perQuery := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(len(file) / 10); perQuery > limit {
		t.Errorf("a resident query allocates %d bytes, want under %d (a tenth of the %d-byte file)", perQuery, limit, len(file))
	}
	t.Logf("%d bytes allocated per resident query over a %d-byte file", perQuery, len(file))
}

// TestHashStreamAllocatesNothing pins the streamed digest: once its pooled
// buffer exists, hashing a file-sized input allocates nothing at all.
func TestHashStreamAllocatesNothing(t *testing.T) {
	data := bytes.Repeat([]byte("convoy"), 400_000) // 2.4 MB: ten buffers' worth
	want := sha256.Sum256(data)
	r := bytes.NewReader(data)
	var st loadStats
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(data)
		sum, err := hashStream(r, &st)
		if err != nil || sum != want {
			t.Fatalf("hashStream = %x, %v; want %x", sum, err, want)
		}
	})
	if allocs != 0 {
		t.Errorf("hashStream allocates %v times per file, want 0", allocs)
	}
	if st.bytes != 21*int64(len(data)) { // AllocsPerRun warms up once
		t.Errorf("hashStream counted %d bytes over 21 passes of %d", st.bytes, len(data))
	}
}
