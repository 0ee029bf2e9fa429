package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proxgraph"
)

// SpecVersion is the current query schema version. A QuerySpec with V 0
// (absent) or SpecVersion decodes; anything else is rejected up front so
// an old server never silently misreads a newer client's query.
const SpecVersion = 1

// QuerySpec is the canonical query parameter set — the one vocabulary
// shared by POST /v1/query (JSON body and URL query string alike), POST
// /v1/feeds/{name}/query, monitor specs and the coordinator↔shard RPC.
// Normalize is the single validator/defaulter behind all of them.
//
// Decoding is compatible with every legacy spelling: the nested
// {"params":{"m","k","e"}} object and flat top-level m/k/e both work (the
// nested form wins when both are present), and the URL form accepts "eps"
// as an alias of "e".
type QuerySpec struct {
	// V is the schema version (0 means SpecVersion).
	V int `json:"v,omitempty"`
	// Params are the convoy query parameters (m, k, e).
	Params ParamsJSON `json:"params"`
	// Algo selects the algorithm: cmc, cuts, cuts+ or cuts* (default; with
	// clusterer "proxgraph" the default becomes cmc and the CuTS family is
	// rejected).
	Algo string `json:"algo,omitempty"`
	// Clusterer selects the clustering backend: "dbscan" (default) or
	// "proxgraph" (per-tick proximity edges; the database is then an edge
	// CSV "a,b,t,w" contact log).
	Clusterer string `json:"clusterer,omitempty"`
	// Delta and Lambda override the automatic CuTS guidelines when > 0.
	Delta  float64 `json:"delta,omitempty"`
	Lambda int64   `json:"lambda,omitempty"`
	// Workers requests a parallel discovery run with that many goroutines
	// per pipeline stage; 0/absent runs serially. Servers clamp the value
	// to their MaxWorkersPerQuery. The answer set is identical for every
	// worker count, so workers never enters a cache key.
	Workers int `json:"workers,omitempty"`
	// Partitions > 1 runs the query as overlapping temporal partitions
	// mined in parallel and merged exactly (core.WithPartitions). Like
	// workers it cannot change the answer set, so it stays out of cache
	// keys. A coordinator ignores it (the shard count decides).
	Partitions int `json:"partitions,omitempty"`
	// From and To restrict the query to the inclusive tick window; absent
	// means unbounded on that side. A windowed answer is the query over the
	// database sliced to the window (interpolation-aware), which is exactly
	// the sub-problem one shard of a distributed run answers.
	From *model.Tick `json:"from,omitempty"`
	To   *model.Tick `json:"to,omitempty"`
	// TimeoutMS aborts the query after this many milliseconds — queueing
	// and discovery both count — answering 504. 0/absent means no
	// client-side deadline; the server's QueryTimeout cap applies either
	// way.
	TimeoutMS float64 `json:"timeout_ms,omitempty"`
	// Explain asks for a per-stage timing profile of this query's
	// discovery run.
	Explain bool `json:"explain,omitempty"`
}

// querySpecAlias avoids recursing into QuerySpec.UnmarshalJSON.
type querySpecAlias QuerySpec

// querySpecCompat is the decode shadow carrying every accepted spelling.
// RawParams shadows the alias's "params" tag (the shallower field wins), so
// the nested object is decoded explicitly below.
type querySpecCompat struct {
	querySpecAlias
	RawParams json.RawMessage `json:"params"`
	// Flat legacy spellings of m/k/e ("eps" as an e alias).
	M   *int     `json:"m"`
	K   *int64   `json:"k"`
	E   *float64 `json:"e"`
	Eps *float64 `json:"eps"`
}

// UnmarshalJSON decodes the canonical form plus the legacy flat spellings.
func (s *QuerySpec) UnmarshalJSON(data []byte) error {
	var c querySpecCompat
	if err := json.Unmarshal(data, &c); err != nil {
		return err
	}
	*s = QuerySpec(c.querySpecAlias)
	if len(c.RawParams) != 0 && string(c.RawParams) != "null" {
		if err := json.Unmarshal(c.RawParams, &s.Params); err != nil {
			return err
		}
		return nil
	}
	// No nested params: the flat spellings fill in.
	if c.M != nil {
		s.Params.M = *c.M
	}
	if c.K != nil {
		s.Params.K = *c.K
	}
	if c.E != nil {
		s.Params.Eps = *c.E
	} else if c.Eps != nil {
		s.Params.Eps = *c.Eps
	}
	return nil
}

// SpecFromURL decodes a QuerySpec from URL query parameters — the upload
// form of POST /v1/query and the shard RPC. m, k and e are required; m and
// k are rejected (not truncated) when fractional; "eps" is accepted as an
// alias of "e".
func SpecFromURL(q url.Values) (QuerySpec, error) {
	var s QuerySpec
	integer := func(key string, required bool) (int64, bool, error) {
		raw := q.Get(key)
		if raw == "" {
			if required {
				return 0, false, fmt.Errorf("decode query: missing parameter %q", key)
			}
			return 0, false, nil
		}
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return 0, false, fmt.Errorf("decode query: bad %s=%q (want an integer)", key, raw)
		}
		return v, true, nil
	}
	if raw := q.Get("v"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 32)
		if err != nil {
			return s, fmt.Errorf("decode query: bad v=%q (want an integer)", raw)
		}
		s.V = int(v)
	}
	m, _, err := integer("m", true)
	if err != nil {
		return s, err
	}
	k, _, err := integer("k", true)
	if err != nil {
		return s, err
	}
	ekey, raw := "e", q.Get("e")
	if raw == "" && q.Get("eps") != "" {
		ekey, raw = "eps", q.Get("eps")
	}
	if raw == "" {
		return s, fmt.Errorf("decode query: missing parameter %q", "e")
	}
	e, perr := strconv.ParseFloat(raw, 64)
	if perr != nil {
		return s, fmt.Errorf("decode query: bad %s=%q", ekey, raw)
	}
	s.Params = ParamsJSON{M: int(m), K: k, Eps: e}
	s.Algo = q.Get("algo")
	s.Clusterer = q.Get("clusterer")
	if raw := q.Get("delta"); raw != "" {
		if s.Delta, err = strconv.ParseFloat(raw, 64); err != nil {
			return s, fmt.Errorf("decode query: bad delta=%q", raw)
		}
	}
	if lam, ok, err := integer("lambda", false); err != nil {
		return s, err
	} else if ok {
		s.Lambda = lam
	}
	if w, ok, err := integer("workers", false); err != nil {
		return s, err
	} else if ok {
		s.Workers = int(w)
	}
	if n, ok, err := integer("partitions", false); err != nil {
		return s, err
	} else if ok {
		s.Partitions = int(n)
	}
	if from, ok, err := integer("from", false); err != nil {
		return s, err
	} else if ok {
		t := model.Tick(from)
		s.From = &t
	}
	if to, ok, err := integer("to", false); err != nil {
		return s, err
	} else if ok {
		t := model.Tick(to)
		s.To = &t
	}
	if raw := q.Get("timeout_ms"); raw != "" {
		if s.TimeoutMS, err = strconv.ParseFloat(raw, 64); err != nil {
			return s, fmt.Errorf("decode query: bad timeout_ms=%q", raw)
		}
	}
	if raw := q.Get("explain"); raw != "" {
		if s.Explain, err = strconv.ParseBool(raw); err != nil {
			return s, fmt.Errorf("decode query: bad explain=%q (want a boolean)", raw)
		}
	}
	return s, nil
}

// URLValues encodes the spec as URL query parameters — the inverse of
// SpecFromURL, used by the coordinator to address a shard and by clients
// uploading a database body. Zero-valued knobs are omitted.
func (s QuerySpec) URLValues() url.Values {
	q := url.Values{}
	q.Set("v", strconv.Itoa(SpecVersion))
	q.Set("m", strconv.Itoa(s.Params.M))
	q.Set("k", strconv.FormatInt(s.Params.K, 10))
	q.Set("e", strconv.FormatFloat(s.Params.Eps, 'g', -1, 64))
	if s.Algo != "" {
		q.Set("algo", s.Algo)
	}
	if s.Clusterer != "" {
		q.Set("clusterer", s.Clusterer)
	}
	if s.Delta > 0 {
		q.Set("delta", strconv.FormatFloat(s.Delta, 'g', -1, 64))
	}
	if s.Lambda > 0 {
		q.Set("lambda", strconv.FormatInt(s.Lambda, 10))
	}
	if s.Workers > 0 {
		q.Set("workers", strconv.Itoa(s.Workers))
	}
	if s.Partitions > 0 {
		q.Set("partitions", strconv.Itoa(s.Partitions))
	}
	if s.From != nil {
		q.Set("from", strconv.FormatInt(int64(*s.From), 10))
	}
	if s.To != nil {
		q.Set("to", strconv.FormatInt(int64(*s.To), 10))
	}
	if s.TimeoutMS > 0 {
		q.Set("timeout_ms", strconv.FormatFloat(s.TimeoutMS, 'g', -1, 64))
	}
	if s.Explain {
		q.Set("explain", "true")
	}
	return q
}

// Resolved is the validated, defaulted form of a QuerySpec — what
// Normalize returns and every surface runs: Options turns it into the
// core.Query, ContactLog into the input of a graph-backend run.
type Resolved struct {
	// Spec is the normalized spec: algorithm lowercased and defaulted,
	// clusterer canonical ("" for the default backend), V set.
	Spec QuerySpec
	// P are the validated core parameters.
	P core.Params
	// IsCMC and Variant resolve the algorithm; Algo is its canonical name.
	IsCMC   bool
	Variant core.Variant
	Algo    string
	// Clusterer is the normalized backend name, "" for the default (so
	// legacy cache keys are unchanged).
	Clusterer string
	// From and To are the window bounds with sentinels substituted for the
	// unbounded sides. Windowed reports whether any bound was given.
	From, To model.Tick
	Windowed bool
}

// Normalize validates the spec and resolves every default — the single
// validator behind every query surface (convoyd's routes and convoyfind's
// flags alike). The returned error is a client mistake by construction
// (servers answer 400).
func (s QuerySpec) Normalize() (Resolved, error) {
	var r Resolved
	if s.V != 0 && s.V != SpecVersion {
		return r, fmt.Errorf("unsupported query schema version %d (this server speaks v%d)", s.V, SpecVersion)
	}
	cl, err := ParseClusterer(s.Clusterer)
	if err != nil {
		return r, err
	}
	if cl.Name() != core.DefaultBackend {
		r.Clusterer = cl.Name()
	}
	if s.Algo == "" {
		s.Algo = DefaultAlgo
		if r.Clusterer != "" {
			// The CuTS family's filter step depends on Euclidean DBSCAN
			// bounds, so a graph backend only runs under CMC — which is
			// therefore what a proxgraph query that names no algorithm gets.
			s.Algo = AlgoCMC
		}
	}
	r.Algo = strings.ToLower(s.Algo)
	switch r.Algo {
	case AlgoCMC:
		r.IsCMC = true
	case AlgoCuTS:
		r.Variant = core.VariantCuTS
	case AlgoCuTSPlus:
		r.Variant = core.VariantCuTSPlus
	case AlgoCuTSStar:
		r.Variant = core.VariantCuTSStar
	default:
		return r, fmt.Errorf("unknown algorithm %q (want cmc, cuts, cuts+ or cuts*)", s.Algo)
	}
	if r.Clusterer != "" && !r.IsCMC {
		return r, fmt.Errorf("clusterer %q requires algo=cmc (the CuTS filter bounds are DBSCAN-specific; got algo=%q)",
			r.Clusterer, s.Algo)
	}
	r.P = s.Params.Params()
	if err := r.P.Validate(); err != nil {
		return r, err
	}
	// The URL form parses "NaN" and "Inf", which no distance threshold is.
	if math.IsNaN(r.P.Eps) || math.IsInf(r.P.Eps, 0) {
		return r, fmt.Errorf("e must be a finite distance (got %g)", r.P.Eps)
	}
	if s.Workers < 0 {
		return r, fmt.Errorf("workers must be ≥ 0 (got %d)", s.Workers)
	}
	if s.Partitions < 0 {
		return r, fmt.Errorf("partitions must be ≥ 0 (got %d)", s.Partitions)
	}
	// timeout_ms must be a usable duration: finite, non-negative and small
	// enough that the milliseconds→Duration conversion cannot overflow
	// (NaN/Inf pass a plain "< 0" check and would silently mean "no
	// deadline").
	if s.TimeoutMS < 0 || math.IsNaN(s.TimeoutMS) || math.IsInf(s.TimeoutMS, 0) ||
		s.TimeoutMS > float64(math.MaxInt64)/float64(time.Millisecond) {
		return r, fmt.Errorf("timeout_ms must be a finite duration in milliseconds ≥ 0 (got %g)", s.TimeoutMS)
	}
	r.From, r.To = model.MinTick, model.MaxTick
	if s.From != nil {
		r.From, r.Windowed = *s.From, true
	}
	if s.To != nil {
		r.To, r.Windowed = *s.To, true
	}
	if r.From > r.To {
		return r, fmt.Errorf("query window inverted (from %d > to %d)", r.From, r.To)
	}
	if r.IsCMC {
		// CMC ignores δ/λ entirely; normalize them out so equivalent CMC
		// queries share cache keys.
		s.Delta, s.Lambda = 0, 0
	}
	// A δ or λ that is not positive (NaN included) asks for the automatic
	// guideline, which is what 0 spells — the one spelling URLValues keeps.
	if !(s.Delta > 0) {
		s.Delta = 0
	}
	s.Lambda = max(s.Lambda, 0)
	s.V = SpecVersion
	s.Algo = r.Algo
	s.Clusterer = r.Clusterer
	r.Spec = s
	return r, nil
}

// Options is the one place a resolved spec becomes core.Query options:
// params, partitions, the algorithm with its δ/λ, and the stats sink.
// workers is the caller's to decide — a server clamps the spec's request to
// its cap, convoyfind uses every core — and cl, when non-nil, replaces the
// default per-tick clusterer (see ContactLog).
func (r Resolved) Options(workers int, cl core.Clusterer, st *core.Stats) []core.Option {
	opts := []core.Option{core.WithParams(r.P), core.WithWorkers(workers), core.WithStats(st)}
	if n := r.Spec.Partitions; n > 1 {
		opts = append(opts, core.WithPartitions(n))
	}
	if cl != nil {
		opts = append(opts, core.WithClusterer(cl))
	}
	if r.IsCMC {
		return append(opts, core.WithCMC())
	}
	return append(opts,
		core.WithVariant(r.Variant),
		core.WithDelta(r.Spec.Delta),
		core.WithLambda(r.Spec.Lambda))
}

// ContactLog is the one place a contact log (the a,b,t,w input of a
// proxgraph query) becomes what a run mines: the records inside the
// resolved window — per-tick clusters are a pure function of that tick's
// edges, so dropping the others is exact — as the positionless stand-in
// database, one row per object spanning its first to last contact, plus the
// clusterer that reads the contact graph itself, tick by tick, from the log.
func (r Resolved) ContactLog(log *proxgraph.Log) (*model.DB, core.Clusterer, error) {
	if lo, hi, ok := log.TimeRange(); ok && (lo < r.From || hi > r.To) {
		var err error
		if log, err = log.Window(r.From, r.To); err != nil {
			return nil, nil, err
		}
	}
	db, err := log.DB()
	if err != nil {
		return nil, nil, err
	}
	return db, log.Clusterer(), nil
}
