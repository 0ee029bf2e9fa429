// Fleetserver shows the serving layer end to end: it embeds a convoyd
// server in-process, then acts as HTTP clients against it — a tracker
// pushing per-tick GPS batches into one feed, and a dispatcher tailing the
// feed's NDJSON event stream for dissolved-convoy alerts. Two standing
// queries (monitors) with different lifetime bounds watch the same feed:
// because they share the clustering key (e, m), the server runs ONE DBSCAN
// pass per tick and fans the clusters out to both — the multi-monitor
// streaming engine. Embedding the server means importing internal/serve
// in-tree, as cmd/convoyd does; the same requests work against a standalone
// `convoyd` daemon (curl equivalents in cmd/convoyd's package comment).
//
//	go run ./examples/fleetserver
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serve"
)

func main() {
	// Host the server in-process on a loopback port, with its instrument
	// registry mounted as /metrics next to the API — the same layout
	// `convoyd` serves by default.
	reg := metrics.NewRegistry()
	srv := serve.New(serve.Config{Metrics: reg})
	defer srv.Close()
	mux := http.NewServeMux()
	mux.Handle("/v1/", srv)
	mux.Handle("GET /metrics", reg.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, mux)
	base := "http://" + ln.Addr().String()
	fmt.Println("convoyd serving on", base)

	decode := func(r io.Reader, v any) {
		if err := json.NewDecoder(r).Decode(v); err != nil {
			log.Fatal(err)
		}
	}
	post := func(path string, body any) *http.Response {
		data, err := json.Marshal(body)
		if err != nil {
			log.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode >= 300 {
			log.Fatalf("POST %s: %s", path, resp.Status)
		}
		return resp
	}

	// Create a feed whose default monitor watches for pairs that stay
	// within distance 1 for five consecutive ticks...
	post("/v1/feeds", serve.FeedSpec{
		Name:   "vans",
		Params: serve.ParamsJSON{M: 2, K: 5, Eps: 1},
	}).Body.Close()
	// ...and register a second, more patient standing query on the same
	// feed: same (e, m) — so it shares the per-tick clustering pass with
	// the default monitor — but a 12-tick lifetime bound.
	post("/v1/feeds/vans/monitors", serve.MonitorSpec{
		ID:     "long-haul",
		Params: serve.ParamsJSON{M: 2, K: 12, Eps: 1},
	}).Body.Close()

	// Dispatcher: tail the event stream and print alerts as they happen,
	// labeled by the monitor whose query closed.
	events, err := http.Get(base + "/v1/feeds/vans/events")
	if err != nil {
		log.Fatal(err)
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

	// Tracker: vans 0 and 1 drive together from tick 0; van 2 joins at
	// tick 6; the platoon splits at tick 14 (the livemonitor scenario,
	// now over the wire).
	for t := model.Tick(0); t < 20; t++ {
		x := float64(t) * 2
		var pos []serve.Position
		switch {
		case t < 6:
			pos = []serve.Position{{ID: "van1", X: x, Y: 0}, {ID: "van2", X: x, Y: 0.8}, {ID: "van3", X: x - 40, Y: 30}}
		case t < 14:
			pos = []serve.Position{{ID: "van1", X: x, Y: 0}, {ID: "van2", X: x, Y: 0.8}, {ID: "van3", X: x, Y: 1.6}}
		default:
			pos = []serve.Position{{ID: "van1", X: x, Y: 0}, {ID: "van2", X: x, Y: 40}, {ID: "van3", X: x, Y: 80}}
		}
		resp := post("/v1/feeds/vans/ticks", serve.TickBatch{T: t, Positions: pos})
		var tr struct {
			Closed []serve.ConvoyJSON `json:"closed"`
		}
		decode(resp.Body, &tr)
		resp.Body.Close()
		for range tr.Closed {
			ev := <-alerts
			fmt.Printf("  tick %2d: ALERT [%s] — convoy %v dissolved after %d ticks together [%d–%d]\n",
				t, ev.Monitor, ev.Convoy.Objects, ev.Convoy.Lifetime, ev.Convoy.Start, ev.Convoy.End)
		}
	}

	// One clustering pass per tick served both standing queries.
	status, err := http.Get(base + "/v1/feeds/vans")
	if err != nil {
		log.Fatal(err)
	}
	var st serve.FeedStatus
	decode(status.Body, &st)
	status.Body.Close()
	fmt.Printf("shared clustering: %d monitors, %d ticks, %d DBSCAN passes (%d key group)\n",
		len(st.Monitors), st.Ticks, st.ClusterPasses, st.ClusterGroups)

	// Tear the feed down; still-open convoys of every monitor are drained,
	// not lost.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/feeds/vans", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	var del struct {
		Drained []serve.ConvoyJSON `json:"drained"`
	}
	decode(resp.Body, &del)
	resp.Body.Close()
	for _, c := range del.Drained {
		fmt.Printf("  feed end: convoy %v still open, together since tick %d (%d ticks)\n",
			c.Objects, c.Start, c.Lifetime)
	}
	// Finally, read the same story off the observability surface: the
	// exported snapshot and a real /metrics scrape agree on the shared
	// clustering saving.
	snap := srv.Snapshot()
	fmt.Printf("snapshot: %d ticks, %d events, %d passes run vs %d naive (saved %d)\n",
		snap.Ticks, snap.Events, snap.ClusterPasses, snap.ClusterPassesNaive,
		snap.ClusterPassesNaive-snap.ClusterPasses)
	scrape, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	sc2 := bufio.NewScanner(scrape.Body)
	for sc2.Scan() {
		if line := sc2.Text(); strings.HasPrefix(line, "convoyd_feed_cluster_passes") {
			fmt.Println("  " + line)
		}
	}
	scrape.Body.Close()
	fmt.Println("done — one feed, one clustering pass per tick, any number of standing queries")
}
