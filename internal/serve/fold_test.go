package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/wire"
)

// foldPos is one position of a scripted tick block.
type foldPos struct {
	label string
	x, y  float64
}

// foldBlocks walks the blocks (block i at tick base+i) through a pooled
// fold, as a history read does, and returns it.
func foldBlocks(base model.Tick, blocks [][]foldPos) *windowFold {
	w := newWindowFold()
	for i, blk := range blocks {
		w.Block(base+model.Tick(i), len(blk))
		for _, p := range blk {
			w.Position([]byte(p.label), p.x, p.y)
		}
	}
	return w
}

// referenceWindow is the window's database built the plain way: a label
// map, first-seen order, one sample per position.
func referenceWindow(t *testing.T, base model.Tick, blocks [][]foldPos) *model.DB {
	t.Helper()
	var order []string
	samples := map[string][]model.Sample{}
	for i, blk := range blocks {
		for _, p := range blk {
			if _, seen := samples[p.label]; !seen {
				order = append(order, p.label)
			}
			samples[p.label] = append(samples[p.label], model.Sample{T: base + model.Tick(i), P: geom.Pt(p.x, p.y)})
		}
	}
	db := model.NewDB()
	for _, label := range order {
		tr, err := model.NewTrajectory(label, samples[label])
		if err != nil {
			t.Fatal(err)
		}
		db.Add(tr)
	}
	return db
}

// TestWindowFoldMatchesReference: whatever the order objects come in — the
// same every block, reordered between blocks, thinned by an object that
// vanishes and comes back — the fold's database equals the plain label-map
// build, trajectory by trajectory. The cases run back to back on pooled
// folds, so each also proves that a reused fold carries nothing over.
func TestWindowFoldMatchesReference(t *testing.T) {
	stable := [][]foldPos{
		{{"a", 0, 0}, {"b", 1, 0}, {"c", 2, 0}},
		{{"a", 0, 1}, {"b", 1, 1}, {"c", 2, 1}},
		{{"a", 0, 2}, {"b", 1, 2}, {"c", 2, 2}},
	}
	reordered := [][]foldPos{
		{{"a", 0, 0}, {"b", 1, 0}, {"c", 2, 0}, {"d", 3, 0}},
		{{"c", 2, 1}, {"a", 0, 1}, {"d", 3, 1}, {"b", 1, 1}},
		{{"d", 3, 2}, {"c", 2, 2}, {"b", 1, 2}, {"a", 0, 2}},
		{{"b", 1, 3}, {"a", 0, 3}, {"c", 2, 3}, {"d", 3, 3}},
	}
	vanishing := [][]foldPos{
		{{"a", 0, 0}, {"b", 1, 0}, {"c", 2, 0}},
		{{"a", 0, 1}, {"c", 2, 1}}, // b gone: c moves up a position
		{{"a", 0, 2}},
		{{"e", 4, 3}, {"a", 0, 3}, {"b", 1, 3}}, // b back, behind a newcomer
		{{"a", 0, 4}, {"b", 1, 4}, {"c", 2, 4}, {"e", 4, 4}},
	}
	for _, tc := range []struct {
		name   string
		base   model.Tick
		blocks [][]foldPos
	}{
		{"stable", 10, stable},
		{"reordered", 0, reordered},
		{"vanish-and-reappear", 100, vanishing},
		{"stable-again", 7, stable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := foldBlocks(tc.base, tc.blocks)
			defer w.release()
			got, err := w.db()
			if err != nil {
				t.Fatal(err)
			}
			if w.ticks != len(tc.blocks) {
				t.Errorf("ticks = %d, want %d", w.ticks, len(tc.blocks))
			}
			want := referenceWindow(t, tc.base, tc.blocks)
			if got.Len() != want.Len() {
				t.Fatalf("%d objects, want %d", got.Len(), want.Len())
			}
			for id := range want.Len() {
				g, w := got.Traj(id), want.Traj(id)
				if g.Label != w.Label || !reflect.DeepEqual(g.Samples, w.Samples) {
					t.Errorf("object %d = %q %v, want %q %v", id, g.Label, g.Samples, w.Label, w.Samples)
				}
			}
		})
	}
}

// A label repeated within one block is two samples of one object at one
// tick, which no trajectory holds: the window fails to assemble, with the
// error the label-map fold gave.
func TestWindowFoldRepeatedLabel(t *testing.T) {
	w := foldBlocks(4, [][]foldPos{
		{{"a", 0, 0}, {"b", 1, 0}},
		{{"a", 0, 1}, {"b", 1, 1}, {"a", 0, 2}},
	})
	defer w.release()
	_, err := w.db()
	const want = `serve: window database: model: samples not strictly increasing in time: t[2]=5 after t[1]=5 (label "a")`
	if err == nil || err.Error() != want {
		t.Fatalf("db() error = %v, want %s", err, want)
	}
}

// foldFeedBatch is tick t of a feed whose objects are prefix0..prefix5:
// 0–2 travel together throughout; 3–4 together only on ticks 8–27; 5 rides
// with 0–2 but vanishes on ticks 14–19. The positions rotate by one place
// every tick, so a block rarely lists an object where the previous one did.
func foldFeedBatch(prefix string, t model.Tick) TickBatch {
	x := float64(t)
	var ps []wire.Position
	for i := 0; i < 6; i++ {
		if i == 5 && t >= 14 && t < 20 {
			continue
		}
		p := wire.Position{ID: fmt.Sprintf("%s%d", prefix, i), X: x, Y: 0.5 * float64(i)}
		if i >= 3 && i < 5 {
			p.Y = 50 + 0.5*float64(i)
			if t < 8 || t >= 28 {
				p.Y = 50 + 20*float64(i)
			}
		}
		if i == 5 {
			p.Y = 1.5
		}
		ps = append(ps, p)
	}
	r := int(t) % len(ps)
	return TickBatch{T: t, Positions: append(ps[r:], ps[:r]...)}
}

// TestHistoryQueriesInterleavedOnPooledFolds runs history queries on two
// feeds with disjoint labels at once, from several goroutines each, so
// their folds come from and go back to the pool interleaved. Every answer
// must equal internal/oracle's over that feed's stream: a fold that leaked
// a label or a column from one query into another would show up as a
// foreign object or a wrong convoy, and one released while its query still
// mined would race under -race (the streams are long enough that mining
// overlaps the next read).
func TestHistoryQueriesInterleavedOnPooledFolds(t *testing.T) {
	_, ts := newTestServer(t, durableConfig(filepath.Join(t.TempDir(), "data")))
	params := wire.ParamsJSON{M: 2, K: 5, Eps: 1}
	const ticks = 200
	want := map[string][]ConvoyJSON{}
	for _, name := range []string{"left", "right"} {
		createFeed(t, ts.URL, name, params)
		var stream []TickBatch
		for tick := model.Tick(0); tick < ticks; tick++ {
			b := foldFeedBatch(name+"-", tick)
			pushTick(t, ts.URL, name, b)
			stream = append(stream, b)
		}
		var order []string
		samples := map[string][]model.Sample{}
		for _, b := range stream {
			for _, p := range b.Positions {
				if _, seen := samples[p.ID]; !seen {
					order = append(order, p.ID)
				}
				samples[p.ID] = append(samples[p.ID], model.Sample{T: b.T, P: geom.Pt(p.X, p.Y)})
			}
		}
		db := model.NewDB()
		for _, label := range order {
			tr, err := model.NewTrajectory(label, samples[label])
			if err != nil {
				t.Fatal(err)
			}
			db.Add(tr)
		}
		cs := []ConvoyJSON{}
		for _, c := range oracleAnswer(db, core.Params{M: 2, K: 5, Eps: 1}) {
			cs = append(cs, wire.ConvoyToJSON(c, wire.DBLabels(db)))
		}
		if len(cs) < 2 {
			t.Fatalf("feed %s: the oracle finds %d convoys; the test needs both groups", name, len(cs))
		}
		sortConvoys(cs)
		want[name] = cs
	}

	body, err := json.Marshal(HistoryQueryRequest{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		name := []string{"left", "right"}[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < 10; q++ {
				resp, err := http.Post(ts.URL+"/v1/feeds/"+name+"/query", "application/json", strings.NewReader(string(body)))
				if err != nil {
					t.Error(err)
					return
				}
				var got HistoryQueryResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("feed %s query %d: status %d, %v", name, q, resp.StatusCode, err)
					return
				}
				sortConvoys(got.Convoys)
				if !reflect.DeepEqual(got.Convoys, want[name]) {
					t.Errorf("feed %s query %d diverged from the oracle\n got: %+v\nwant: %+v", name, q, got.Convoys, want[name])
					return
				}
			}
		}()
	}
	wg.Wait()
}
