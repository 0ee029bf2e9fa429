package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wire"
)

// expectRefusal sends body (JSON-encoded) and wants the 400 a spec naming
// a non-default clusterer gets: the uniform envelope, pointing at the
// library option.
func expectRefusal(t *testing.T, method, url string, body any) {
	t.Helper()
	var env wire.ErrorJSON
	doJSON(t, method, url, body, http.StatusBadRequest, &env)
	if env.Error.Code != "bad_request" || !strings.Contains(env.Error.Message, "convoys.WithClusterer") {
		t.Fatalf("%s %s: error %+v, want a bad_request naming convoys.WithClusterer", method, url, env.Error)
	}
}

// TestClustererRefused: the daemon clusters positions only. A spec naming
// proxgraph — a JSON query, the URL form, a feed, a monitor — answers 400
// with the library pointer and leaves nothing behind; without the refusal
// an a,b,t,w upload would be read as a trajectory database and a proxgraph
// feed would quietly cluster positions. "dbscan", in any case, is the
// legacy spelling of the default: accepted, and the same query — the same
// cache entry — as no clusterer at all. (The history query's refusal is
// TestHistoryQueryProxgraph.)
func TestClustererRefused(t *testing.T) {
	data := t.TempDir()
	csv := []byte("obj,t,x,y\na,0,0,0\na,1,1,0\na,2,2,0\nb,0,0,0.5\nb,1,1,0.5\nb,2,2,0.5\n")
	if err := os.WriteFile(filepath.Join(data, "q.csv"), csv, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{DataDir: data})

	// JSON /v1/query.
	req := QueryRequest{Path: "q.csv"}
	req.Params, req.Algo, req.Clusterer = wire.ParamsJSON{M: 2, K: 2, Eps: 1}, AlgoCMC, "proxgraph"
	expectRefusal(t, "POST", ts.URL+"/v1/query", req)

	// The URL form, over an upload that is a valid a,b,t,w contact log.
	post := func(query string, body []byte) (int, QueryResponse, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/query?"+query, "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var qr QueryResponse
		_ = json.Unmarshal(raw, &qr)
		return resp.StatusCode, qr, string(raw)
	}
	if code, _, raw := post("m=2&k=2&e=1&clusterer=proxgraph", []byte("a,b,t,w\na,b,0,1\na,b,1,1\n")); code != http.StatusBadRequest ||
		!strings.Contains(raw, "convoys.WithClusterer") {
		t.Fatalf("URL clusterer=proxgraph: %d %s, want a 400 naming convoys.WithClusterer", code, raw)
	}

	// The legacy spellings of the default share the plain query's entry.
	code, first, raw := post("m=2&k=2&e=1&algo=cmc", csv)
	if code != http.StatusOK || first.Cache != "miss" || len(first.Convoys) != 1 {
		t.Fatalf("plain query: %d %s, want a computed convoy", code, raw)
	}
	for _, spelling := range []string{"dbscan", "DBSCAN"} {
		code, again, raw := post("m=2&k=2&e=1&algo=cmc&clusterer="+spelling, csv)
		if code != http.StatusOK || again.Cache != "hit" {
			t.Fatalf("clusterer=%s: %d %s, want the plain query's cache hit", spelling, code, raw)
		}
	}

	// A feed, and a monitor on a feed that exists: refused, and not created.
	expectRefusal(t, "POST", ts.URL+"/v1/feeds",
		FeedSpec{Name: "contacts", Params: wire.ParamsJSON{M: 2, K: 2, Eps: 1}, Clusterer: "proxgraph"})
	doJSON(t, "GET", ts.URL+"/v1/feeds/contacts", nil, http.StatusNotFound, nil)
	var st FeedStatus
	doJSON(t, "POST", ts.URL+"/v1/feeds",
		FeedSpec{Name: "fleet", Params: wire.ParamsJSON{M: 2, K: 2, Eps: 1}, Clusterer: "dbscan"}, http.StatusCreated, &st)
	expectRefusal(t, "POST", ts.URL+"/v1/feeds/fleet/monitors",
		MonitorSpec{ID: "graph", Params: wire.ParamsJSON{M: 2, K: 2, Eps: 1}, Clusterer: "proxgraph"})
	addMonitor(t, ts.URL, "fleet", MonitorSpec{ID: "wide", Params: wire.ParamsJSON{M: 2, K: 3, Eps: 2}, Clusterer: "DBSCAN"})
	doJSON(t, "GET", ts.URL+"/v1/feeds/fleet", nil, http.StatusOK, &st)
	if len(st.Monitors) != 2 || st.Monitors[0].ID != DefaultMonitorID || st.Monitors[1].ID != "wide" {
		t.Fatalf("monitors = %+v, want default and wide only", st.Monitors)
	}
}
