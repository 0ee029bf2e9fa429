package feed

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/tsio"
	"repro/internal/wal"
)

// legacyEdge is one proximity edge of a tick block as builds whose feeds
// took contact edges logged it.
type legacyEdge struct {
	a, b string
	w    float64
}

// legacyBlock encodes b as those builds did: the positions as
// tsio.AppendTickBlock writes them, then a non-empty edge section in place
// of the zero edge count.
func legacyBlock(b tsio.TickBlock, edges []legacyEdge) []byte {
	data := tsio.AppendTickBlock(nil, b)
	data = binary.AppendUvarint(data[:len(data)-1], uint64(len(edges)))
	for _, e := range edges {
		data = binary.AppendUvarint(data, uint64(len(e.a)))
		data = append(data, e.a...)
		data = binary.AppendUvarint(data, uint64(len(e.b)))
		data = append(data, e.b...)
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(e.w))
	}
	return data
}

// writeLegacyFeed lays down one feed's WAL directory byte for byte as those
// builds wrote it: the manifest (with its clusterer field), one segment of
// CRC-framed payloads ("CWALSEG1", then u32 length | u32 CRC-32C | payload
// per record) and the spec journal's entries.
func writeLegacyFeed(t *testing.T, walRoot, manifestJSON string, payloads [][]byte, journal ...string) string {
	t.Helper()
	var mf struct{ Name string }
	if err := json.Unmarshal([]byte(manifestJSON), &mf); err != nil {
		t.Fatal(err)
	}
	dir := LogDir(walRoot, mf.Name)
	l, err := wal.Create(dir, []byte(manifestJSON), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := []byte("CWALSEG1")
	for _, p := range payloads {
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(p)))
		seg = binary.LittleEndian.AppendUint32(seg, crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
		seg = append(seg, p...)
	}
	if err := os.WriteFile(filepath.Join(dir, "00000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	jnl, _, _, err := wal.OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range journal {
		if err := jnl.Append([]byte(op)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// legacyStream is the position stream of the recovered feed: a and b
// travel together until tick 13, c rides with them from tick 4 and keeps
// going with b, d wanders alone. Every block also carries the contact
// edges a proxgraph monitor would have clustered — a–d, always, which no
// position supports.
func legacyStream() []tsio.TickBlock {
	var out []tsio.TickBlock
	for t := model.Tick(0); t < 24; t++ {
		x := float64(t)
		blk := tsio.TickBlock{T: t, Positions: []tsio.TickPosition{
			{Label: "b", X: x, Y: 0.5},
			{Label: "d", X: 40 - x, Y: 30},
		}}
		if t < 13 {
			blk.Positions = append(blk.Positions, tsio.TickPosition{Label: "a", X: x, Y: 0})
		}
		if t >= 4 {
			blk.Positions = append(blk.Positions, tsio.TickPosition{Label: "c", X: x, Y: 1.3})
		}
		out = append(out, blk)
	}
	return out
}

// TestRecoverLegacyLogs: a data directory written before the daemon
// dropped the clusterer still recovers. A dbscan feed whose blocks carry
// edge sections comes back with its monitors answering exactly what
// internal/oracle answers over its positions (the edges are validated and
// skipped); a feed whose manifest, or whose journaled monitor, names
// proxgraph fails closed — skipped, its directory left on disk — rather
// than replaying contact monitors as position monitors.
func TestRecoverLegacyLogs(t *testing.T) {
	walRoot := t.TempDir()
	stream := legacyStream()
	var payloads [][]byte
	for _, blk := range stream {
		payloads = append(payloads, legacyBlock(blk, []legacyEdge{{"a", "d", 1}, {"x", "y", 0.5}}))
	}
	writeLegacyFeed(t, walRoot, `{"name":"positions","params":{"m":2,"k":3,"e":1},"clusterer":"dbscan"}`, payloads,
		`{"op":"monitor-add","id":"wide","params":{"m":2,"k":5,"e":2},"clusterer":"dbscan","after_tick":5,"started":true}`,
		`{"op":"incremental","after_tick":7,"started":true}`)
	contacts := writeLegacyFeed(t, walRoot, `{"name":"contacts","params":{"m":2,"k":3,"e":0.5},"clusterer":"proxgraph"}`,
		[][]byte{legacyBlock(tsio.TickBlock{T: 0}, []legacyEdge{{"x", "y", 1}})})
	mixed := writeLegacyFeed(t, walRoot, `{"name":"mixed","params":{"m":2,"k":3,"e":1},"clusterer":"dbscan"}`, payloads[:4],
		`{"op":"monitor-add","id":"graph","params":{"m":2,"k":3,"e":1},"clusterer":"proxgraph","after_tick":2,"started":true}`)

	var logged bytes.Buffer
	r := NewRegistry(Config{WALDir: walRoot, Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	defer r.CloseAll()
	r.Recover()

	for name, dir := range map[string]string{"contacts": contacts, "mixed": mixed} {
		if _, err := r.Get(name); !errors.Is(err, ErrNoFeed) {
			t.Errorf("feed %q recovered (err %v); want it skipped", name, err)
		}
		if !wal.Exists(dir, wal.Options{}) {
			t.Errorf("feed %q's log left the disk; a skipped feed stays for inspection", name)
		}
	}
	if got := strings.Count(logged.String(), "feed skipped"); got != 2 || !strings.Contains(logged.String(), "convoys.WithClusterer") {
		t.Errorf("recovery log:\n%s\nwant two skipped feeds, each naming the library option", logged.String())
	}

	f, err := r.Get("positions")
	if err != nil {
		t.Fatalf("the dbscan feed did not recover: %v\n%s", err, logged.String())
	}
	ctx := context.Background()
	if st, err := f.WALStatus(ctx); err != nil || st.Recovery == nil || st.Recovery.ReplayedTicks != int64(len(stream)) {
		t.Fatalf("wal status = %+v, %v; want %d replayed ticks", st, err, len(stream))
	}
	// Each monitor with its parameters and the first tick it chained: the
	// journaled one was added after tick 5.
	monitors := map[string]struct {
		p     core.Params
		since model.Tick
	}{DefaultMonitorID: {core.Params{M: 2, K: 3, Eps: 1}, 0}, "wide": {core.Params{M: 2, K: 5, Eps: 2}, 6}}
	for id := range monitors {
		if _, err := f.RemoveMonitor(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	events, err := f.EventsSince(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}

	for id, m := range monitors {
		// The oracle's database: the positions the monitor chained,
		// interned in first-seen order like the feed does.
		db := model.NewDB()
		ids := map[string]model.ObjectID{}
		samples := map[string][]model.Sample{}
		var labels []string
		for _, blk := range stream {
			for _, p := range blk.Positions {
				if blk.T < m.since {
					continue
				}
				if _, ok := samples[p.Label]; !ok {
					labels = append(labels, p.Label)
				}
				samples[p.Label] = append(samples[p.Label], model.Sample{T: blk.T, P: geom.Pt(p.X, p.Y)})
			}
		}
		for _, label := range labels {
			tr, err := model.NewTrajectory(label, samples[label])
			if err != nil {
				t.Fatal(err)
			}
			ids[label] = db.Add(tr)
		}
		var got []core.Convoy
		for _, ev := range events.Events {
			if ev.Monitor != id {
				continue
			}
			c := core.Convoy{Start: ev.Convoy.Start, End: ev.Convoy.End}
			for _, label := range ev.Convoy.Objects {
				c.Objects = append(c.Objects, ids[label])
			}
			sort.Ints(c.Objects)
			got = append(got, c)
		}
		var want []core.Convoy
		for _, c := range oracle.Convoys(db, m.p.M, m.p.K, m.p.Eps) {
			want = append(want, core.Convoy(c))
		}
		if len(want) == 0 {
			t.Fatalf("monitor %q: the oracle finds nothing, the comparison is vacuous", id)
		}
		if canon, wantCanon := core.Canonicalize(got), core.Canonicalize(want); !reflect.DeepEqual(canon, wantCanon) {
			t.Errorf("monitor %q after recovery: %v, oracle %v", id, canon, wantCanon)
		}
	}
}
