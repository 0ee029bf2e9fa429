package wire

import (
	"encoding/json"

	"repro/internal/model"
)

// QueryRequest is the JSON body form of POST /v1/query: the canonical
// QuerySpec (m/k/e, algorithm, window, execution knobs —
// every field promoted here) plus a Path referencing a database file under
// the server's data directory. Uploads instead send the raw CSV/CTB bytes
// with the same spec in the URL query string.
type QueryRequest struct {
	QuerySpec
	// Path locates the database file under the server's data directory.
	Path string `json:"path"`
}

// UnmarshalJSON decodes the embedded spec (with every legacy spelling the
// canonical decoder accepts) plus the path. Without this, the embedded
// spec's own UnmarshalJSON would be promoted and the path silently
// dropped.
func (r *QueryRequest) UnmarshalJSON(data []byte) error {
	if err := json.Unmarshal(data, &r.QuerySpec); err != nil {
		return err
	}
	var p struct {
		Path string `json:"path"`
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	r.Path = p.Path
	return nil
}

// MarshalJSON inlines the spec's fields and the path into one object —
// the inverse of UnmarshalJSON.
func (r QueryRequest) MarshalJSON() ([]byte, error) {
	b, err := json.Marshal(r.QuerySpec)
	if err != nil {
		return nil, err
	}
	if r.Path == "" {
		return b, nil
	}
	p, err := json.Marshal(struct {
		Path string `json:"path"`
	}{r.Path})
	if err != nil {
		return nil, err
	}
	if len(b) <= 2 { // "{}"
		return p, nil
	}
	// {...spec} + {"path":...} → {...spec,"path":...}
	out := append(b[:len(b)-1], ',')
	return append(out, p[1:]...), nil
}

// QueryResponse is the answer of POST /v1/query.
type QueryResponse struct {
	Convoys []ConvoyJSON `json:"convoys"`
	Params  ParamsJSON   `json:"params"`
	Algo    string       `json:"algo"`
	// From and To echo the request's window bounds when it was windowed.
	From *model.Tick `json:"from,omitempty"`
	To   *model.Tick `json:"to,omitempty"`
	// Stats carries the CuTS run statistics of the run this request
	// performed or, as "dedup", waited for (absent for CMC, and on a cache
	// hit, which ran nothing).
	Stats *StatsJSON `json:"stats,omitempty"`
	// Digest identifies the database contents (sha256, hex).
	Digest string `json:"digest"`
	// Cache is "hit" (served from the LRU), "miss" (computed by this
	// request) or "dedup" (this request joined an identical concurrent
	// query's in-flight run and shares its answer).
	Cache string `json:"cache"`
	// Shards counts the shard partials a coordinator merged for this
	// answer (absent on single-node runs).
	Shards int `json:"shards,omitempty"`
	// ElapsedMS is the wall time of this request's engine work (0 on a
	// cache hit).
	ElapsedMS float64 `json:"elapsed_ms"`
	// Explain is the per-stage timing profile of this request's discovery
	// run; present only when the request asked explain=true.
	Explain *ExplainJSON `json:"explain,omitempty"`
}

// HistoryQueryResponse is the answer of POST /v1/feeds/{name}/query.
type HistoryQueryResponse struct {
	Convoys []ConvoyJSON `json:"convoys"`
	Params  ParamsJSON   `json:"params"`
	Algo    string       `json:"algo"`
	// From and To echo the request's window bounds.
	From *model.Tick `json:"from,omitempty"`
	To   *model.Tick `json:"to,omitempty"`
	// Ticks counts the logged batches the window covered; Objects the
	// distinct labels among them.
	Ticks   int `json:"ticks"`
	Objects int `json:"objects"`
	// Stats carries the CuTS run statistics (absent for CMC).
	Stats *StatsJSON `json:"stats,omitempty"`
	// ElapsedMS is the wall time of the window read plus the discovery run.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Explain is the per-stage timing profile, present only when the request
	// asked for it ("explain": true).
	Explain *ExplainJSON `json:"explain,omitempty"`
}
