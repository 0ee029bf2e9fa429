package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/tsio"
	"repro/internal/wal"
	"repro/internal/wire"
)

// gapBatch is one tick of a stream built to stress the history path's
// semantics rather than its happy case: a and b travel together on every
// tick; c travels with them but is only sampled on every third tick, so
// its membership at the ticks between rests on the engine's interpolation;
// d does not exist before tick 17.
func gapBatch(t model.Tick) TickBatch {
	x := float64(t) * 2
	b := TickBatch{T: t, Positions: []wire.Position{{ID: "a", X: x, Y: 0}, {ID: "b", X: x, Y: 0.8}}}
	if t%3 == 0 {
		b.Positions = append(b.Positions, wire.Position{ID: "c", X: x, Y: 1.6})
	}
	if t >= 17 {
		b.Positions = append(b.Positions, wire.Position{ID: "d", X: x, Y: -0.8})
	}
	return b
}

// segmentTicks lists the ticks of one segment file's records, in order,
// with each record's file offset.
func segmentTicks(t *testing.T, path string) (ticks []model.Tick, offs []int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 8; off < len(data); { // 8-byte segment header, then u32 len | u32 crc | payload
		n := int(binary.LittleEndian.Uint32(data[off:]))
		tick, err := tsio.TickBlockTick(data[off+8 : off+8+n])
		if err != nil {
			t.Fatalf("%s offset %d: %v", path, off, err)
		}
		ticks, offs = append(ticks, tick), append(offs, off)
		off += 8 + n
	}
	return ticks, offs
}

// legacyQuery is a query body as a client of the removed partitioned plan
// spelled it: the spec plus a "partitions" field, which decoding drops.
type legacyQuery struct {
	HistoryQueryRequest
	Partitions int `json:"partitions,omitempty"`
}

// TestHistoryWindowGapsAcrossSegments pins the record → column path's
// semantics: a window that straddles three WAL segments, cut so that its
// first segment also holds out-of-window records, with an object that
// skips ticks and one that appears mid-window, answers exactly what
// core.Query answers over the same samples — for CMC and for CuTS* — and
// refuses the proxgraph backend. And a flipped payload byte in an
// out-of-window record of a touched segment still fails the query: records
// the window does not need are CRC-checked, not skipped.
func TestHistoryWindowGapsAcrossSegments(t *testing.T) {
	walRoot := filepath.Join(t.TempDir(), "data")
	_, ts := newTestServer(t, durableConfig(walRoot)) // 512-byte segments
	createFeed(t, ts.URL, "gaps", wire.ParamsJSON{M: 2, K: 4, Eps: 1})
	const last = 40
	for tick := model.Tick(0); tick <= last; tick++ {
		pushTick(t, ts.URL, "gaps", gapBatch(tick))
	}

	// Cut the window out of the actual segment layout: from the second
	// record of one segment to the second-to-last record two segments on.
	segs, err := filepath.Glob(filepath.Join(feed.LogDir(walRoot, "gaps"), "*.wal"))
	if err != nil || len(segs) < 5 {
		t.Fatalf("segments = %v, %v; want at least 5", segs, err)
	}
	firstTicks, firstOffs := segmentTicks(t, segs[1])
	lastTicks, _ := segmentTicks(t, segs[3])
	if len(firstTicks) < 2 || len(lastTicks) < 2 {
		t.Fatalf("segments hold %d and %d records; the cut needs two each", len(firstTicks), len(lastTicks))
	}
	from, to := firstTicks[1], lastTicks[len(lastTicks)-2]
	if from > 15 || to < 20 {
		t.Fatalf("window [%d, %d] misses the late arrivals at ticks 15–17 the test is about", from, to)
	}

	// The oracle's inputs: the window's samples, interned in first-seen
	// order like any label-keyed load.
	db := model.NewDB()
	var labels []string
	samples := map[string][]model.Sample{}
	for tick := from; tick <= to; tick++ {
		b := gapBatch(tick)
		for _, p := range b.Positions {
			if _, seen := samples[p.ID]; !seen {
				labels = append(labels, p.ID)
			}
			samples[p.ID] = append(samples[p.ID], model.Sample{T: tick, P: geom.Pt(p.X, p.Y)})
		}
	}
	for _, label := range labels {
		tr, err := model.NewTrajectory(label, samples[label])
		if err != nil {
			t.Fatal(err)
		}
		db.Add(tr)
	}
	if c := db.Traj(2); c.Label != "c" || int64(c.Len()) >= c.Duration() {
		t.Fatalf("object c = %q with %d samples over %d ticks; want a gappy c", c.Label, c.Len(), c.Duration())
	}
	if d := db.Traj(3); d.Label != "d" || d.Start() <= from {
		t.Fatalf("object d = %q starting at %d; want it to appear after %d", d.Label, d.Start(), from)
	}

	geo := core.Params{M: 2, K: 4, Eps: 1}
	for _, tc := range []struct {
		name string
		req  HistoryQueryRequest
		p    core.Params
		db   *model.DB
		opts []core.Option
		min  int // convoys the case must find, so "both empty" cannot pass
		// legacy, when > 0, is the removed "partitions" field an old client
		// sends. Decoding drops it: a CuTS run is the single pass,
		// λ-partition count and all.
		legacy int
	}{
		{"cmc", HistoryQueryRequest{Algo: AlgoCMC}, geo, db, []core.Option{core.WithCMC()}, 2, 0},
		{"cmc/partitions=3", HistoryQueryRequest{Algo: AlgoCMC}, geo, db, []core.Option{core.WithCMC()}, 2, 3},
		{"cuts*", HistoryQueryRequest{Algo: wire.AlgoCuTSStar}, geo, db, []core.Option{core.WithVariant(core.VariantCuTSStar)}, 2, 0},
		{"cuts*/partitions=3", HistoryQueryRequest{Algo: wire.AlgoCuTSStar, Lambda: 2}, geo, db,
			[]core.Option{core.WithVariant(core.VariantCuTSStar), core.WithLambda(2)}, 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req
			req.Params, req.From, req.To = wire.ParamsToJSON(tc.p), &from, &to
			var resp HistoryQueryResponse
			doJSON(t, "POST", ts.URL+"/v1/feeds/gaps/query", legacyQuery{req, tc.legacy}, http.StatusOK, &resp)
			if want := int(to-from) + 1; resp.Ticks != want {
				t.Fatalf("ticks = %d, want %d", resp.Ticks, want)
			}
			var st core.Stats
			res, err := core.NewQuery(append(tc.opts, core.WithParams(tc.p), core.WithStats(&st))...).Run(context.Background(), tc.db)
			if err != nil {
				t.Fatal(err)
			}
			if tc.legacy > 0 && tc.req.Algo != AlgoCMC && (resp.Stats == nil || resp.Stats.NumPartitions != st.NumPartitions) {
				t.Errorf("stats = %+v, want the single pass's %d λ-partitions", resp.Stats, st.NumPartitions)
			}
			if len(res) < tc.min {
				t.Fatalf("oracle found %d convoys, the case needs ≥ %d to mean anything: %v", len(res), tc.min, res)
			}
			want := []ConvoyJSON{}
			for _, c := range res {
				want = append(want, wire.ConvoyToJSON(c, wire.DBLabels(tc.db)))
			}
			sortConvoys(want)
			got := append([]ConvoyJSON{}, resp.Convoys...)
			sortConvoys(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("historical query diverged from core.Query over the same samples\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
	// The window's contact graph is not the daemon's to cluster: naming the
	// proxgraph backend is refused (TestHistoryQueryProxgraph has the
	// legacy "dbscan" spelling).
	t.Run("proxgraph", func(t *testing.T) {
		expectRefusal(t, "POST", ts.URL+"/v1/feeds/gaps/query",
			HistoryQueryRequest{Params: wire.ParamsToJSON(geo), From: &from, To: &to, Clusterer: "proxgraph"})
	})

	// Damage the window's first segment in the one record the window does
	// not need.
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[firstOffs[0]+8+6] ^= 0xff
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(HistoryQueryRequest{Params: wire.ParamsToJSON(geo), From: &from, To: &to})
	resp, err := http.Post(ts.URL+"/v1/feeds/gaps/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope wire.ErrorJSON
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(envelope.Error.Message, "record CRC mismatch") {
		t.Fatalf("query over a damaged out-of-window record: status %d, %+v; want 500 and a CRC mismatch", resp.StatusCode, envelope)
	}
}

// A historical query is explained and metered like a batch one: with
// "explain": true it returns the run's stage profile (stages summing to no
// more than the total), every op lands on convoyd_queries_total under
// cache="none" and feeds the per-algorithm run-stat counters, and without
// explain the body carries no profile at all.
func TestHistoryQueryExplainAndMetrics(t *testing.T) {
	srv, ts := newTestServer(t, durableConfig(filepath.Join(t.TempDir(), "data")))
	createFeed(t, ts.URL, "gaps", wire.ParamsJSON{M: 2, K: 4, Eps: 1})
	for tick := model.Tick(0); tick <= 12; tick++ {
		pushTick(t, ts.URL, "gaps", gapBatch(tick))
	}
	url := ts.URL + "/v1/feeds/gaps/query"
	req := HistoryQueryRequest{Params: wire.ParamsJSON{M: 2, K: 4, Eps: 1}}

	var plain map[string]json.RawMessage
	doJSON(t, "POST", url, req, http.StatusOK, &plain)
	if _, has := plain["explain"]; has {
		t.Fatalf("plain history query carries a profile: %s", plain["explain"])
	}

	req.Explain = true
	var cmc, star HistoryQueryResponse
	doJSON(t, "POST", url, req, http.StatusOK, &cmc)
	wantStages(t, cmc.Explain, "scan")
	if len(cmc.Convoys) == 0 {
		t.Fatal("explain query found no convoys; a and b travel together throughout")
	}
	req.Algo = wire.AlgoCuTSStar
	doJSON(t, "POST", url, req, http.StatusOK, &star)
	wantStages(t, star.Explain, "simplify", "filter", "refine")

	req.Algo = "nope"
	doJSON(t, "POST", url, req, http.StatusBadRequest, nil)

	samples := scrape(t, srv)
	for series, want := range map[string]float64{
		`convoyd_queries_total{algo="cmc",cache="none",outcome="ok"}`:              2,
		`convoyd_queries_total{algo="cuts*",cache="none",outcome="ok"}`:            1,
		`convoyd_queries_total{algo="invalid",cache="none",outcome="bad_request"}`: 1,
		`convoyd_query_seconds_count{algo="cmc",outcome="ok"}`:                     2,
		`convoyd_query_stats_total{stat="cluster_passes",algo="cmc"}`:              2 * 13,
	} {
		if got := samples[series]; got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
	if got := samples[`convoyd_query_stats_total{stat="candidates",algo="cuts*"}`]; got < 1 {
		t.Errorf("CuTS* history run left no candidates on convoyd_query_stats_total: %g", got)
	}
}

// BenchmarkHistoryWindowDB prices what a historical query does before it
// mines: a 1 000-tick window of a 3 000-tick, ≈ 300-object log (Commute at
// scale 1, 4 MiB segments) read record → column into the model.DB the
// query sweeps, on a pooled fold as historyQuery takes one — so after the
// first iteration the columns are reused, not regrown.
func BenchmarkHistoryWindowDB(b *testing.B) {
	db := datagen.Commute(1, 1).Generate()
	log, err := wal.Create(filepath.Join(b.TempDir(), "feed"), nil, wal.Options{Fsync: wal.FsyncNever, SegmentBytes: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	err = core.ReplayTicks(db, func(t model.Tick, ids []model.ObjectID, pts []geom.Point) error {
		blk := tsio.TickBlock{T: t, Positions: make([]tsio.TickPosition, len(ids))}
		for i, id := range ids {
			blk.Positions[i] = tsio.TickPosition{Label: "commuter-" + strconv.Itoa(id), X: pts[i].X, Y: pts[i].Y}
		}
		return log.Append(blk)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		fold := newWindowFold() // as historyQuery does: pooled, released after use
		err := log.ReadRecords(1000, 1999, true, func(_ model.Tick, payload []byte) error {
			return tsio.WalkTickBlock(payload, fold)
		})
		if err != nil {
			b.Fatal(err)
		}
		window, err := fold.db()
		if err != nil || fold.ticks != 1000 || window.Len() < 250 {
			b.Fatalf("window: %d ticks, %d objects, %v", fold.ticks, window.Len(), err)
		}
		fold.release()
	}
}
