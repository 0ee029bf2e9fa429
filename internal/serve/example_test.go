package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/wire"
)

// The serving layer end to end, embedded the way cmd/convoyd embeds it: a
// tracker pushes per-tick GPS batches into one feed, and a dispatcher tails
// the feed's NDJSON event stream for dissolved-convoy alerts. Two monitors
// (standing queries) with different lifetime bounds watch the feed; they
// share the clustering key (e, m), so the server runs one DBSCAN pass per
// tick and fans its clusters out to both. The same requests work against a
// standalone convoyd (curl equivalents in its package comment).
func Example_fleetserver() {
	reg := metrics.NewRegistry()
	srv := serve.New(serve.Config{Metrics: reg})
	defer srv.Close()
	mux := http.NewServeMux()
	mux.Handle("/v1/", srv)
	mux.Handle("GET /metrics", reg.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	do := func(method, path string, body, out any) {
		var data []byte
		if body != nil {
			data, _ = json.Marshal(body)
		}
		req, _ := http.NewRequest(method, ts.URL+path, bytes.NewReader(data))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			panic(method + " " + path + ": " + resp.Status)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				panic(err)
			}
		}
	}

	// The feed's default monitor wants pairs within 1 for five ticks; a
	// second, more patient one on the same (e, m) wants twelve.
	do("POST", "/v1/feeds", serve.FeedSpec{Name: "vans", Params: wire.ParamsJSON{M: 2, K: 5, Eps: 1}}, nil)
	do("POST", "/v1/feeds/vans/monitors", serve.MonitorSpec{ID: "long-haul", Params: wire.ParamsJSON{M: 2, K: 12, Eps: 1}}, nil)

	// The dispatcher's tail ends when the feed is deleted.
	events, err := http.Get(ts.URL + "/v1/feeds/vans/events")
	if err != nil {
		panic(err)
	}
	defer events.Body.Close()
	alerts := make(chan serve.Event)
	go func() {
		defer close(alerts)
		sc := bufio.NewScanner(events.Body)
		for sc.Scan() {
			var ev serve.Event
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				alerts <- ev
			}
		}
	}()

	// Vans 1 and 2 drive together from tick 0, van 3 joins at tick 6, and
	// the platoon splits at tick 14.
	for t := model.Tick(0); t < 20; t++ {
		x := float64(t) * 2
		pos := []wire.Position{{ID: "van1", X: x, Y: 0}, {ID: "van2", X: x, Y: 0.8}, {ID: "van3", X: x - 40, Y: 30}}
		switch {
		case t >= 14:
			pos[1].Y, pos[2].X, pos[2].Y = 40, x, 80
		case t >= 6:
			pos[2].X, pos[2].Y = x, 1.6
		}
		var tr struct {
			Closed []serve.ConvoyJSON `json:"closed"`
		}
		do("POST", "/v1/feeds/vans/ticks", serve.TickBatch{T: t, Positions: pos}, &tr)
		for range tr.Closed {
			ev := <-alerts
			fmt.Printf("tick %d: ALERT [%s] convoy %v dissolved after %d ticks [%d–%d]\n",
				t, ev.Monitor, ev.Convoy.Objects, ev.Convoy.Lifetime, ev.Convoy.Start, ev.Convoy.End)
		}
	}

	var st serve.FeedStatus
	do("GET", "/v1/feeds/vans", nil, &st)
	fmt.Printf("%d monitors, %d ticks, %d DBSCAN passes\n", len(st.Monitors), st.Ticks, st.ClusterPasses)

	// Deleting the feed ends the event stream; wait for its reader.
	do("DELETE", "/v1/feeds/vans", nil, nil)
	for range alerts {
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "convoyd_feed_cluster_passes") {
			fmt.Println(line)
		}
	}
	// Output:
	// tick 14: ALERT [default] convoy [van1 van2] dissolved after 14 ticks [0–13]
	// tick 14: ALERT [default] convoy [van1 van2 van3] dissolved after 8 ticks [6–13]
	// tick 14: ALERT [long-haul] convoy [van1 van2] dissolved after 14 ticks [0–13]
	// 2 monitors, 20 ticks, 20 DBSCAN passes
	// convoyd_feed_cluster_passes_full_total 20
	// convoyd_feed_cluster_passes_incremental_total 0
	// convoyd_feed_cluster_passes_naive_total 40
	// convoyd_feed_cluster_passes_total 20
}
