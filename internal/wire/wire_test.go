package wire

import (
	"context"
	"encoding/json"
	"math"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/proxgraph"
)

// TestSpecDecodeCompat pins every legacy body spelling: flat m/k/e, the
// "eps" alias, and the canonical nested params object — all must decode to
// the same spec, and nested params must win over flat keys when both
// appear.
func TestSpecDecodeCompat(t *testing.T) {
	cases := []struct {
		name string
		body string
		want ParamsJSON
	}{
		{"nested", `{"params":{"m":3,"k":4,"e":1.5}}`, ParamsJSON{M: 3, K: 4, Eps: 1.5}},
		{"flat", `{"m":3,"k":4,"e":1.5}`, ParamsJSON{M: 3, K: 4, Eps: 1.5}},
		{"flat_eps_alias", `{"m":3,"k":4,"eps":1.5}`, ParamsJSON{M: 3, K: 4, Eps: 1.5}},
		{"e_beats_eps", `{"m":3,"k":4,"e":1.5,"eps":9}`, ParamsJSON{M: 3, K: 4, Eps: 1.5}},
		{"nested_beats_flat", `{"params":{"m":3,"k":4,"e":1.5},"m":9,"k":9,"e":9}`, ParamsJSON{M: 3, K: 4, Eps: 1.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s QuerySpec
			if err := json.Unmarshal([]byte(tc.body), &s); err != nil {
				t.Fatalf("decode %s: %v", tc.body, err)
			}
			if s.Params != tc.want {
				t.Fatalf("decoded params %+v, want %+v", s.Params, tc.want)
			}
		})
	}
}

func TestSpecDecodeFull(t *testing.T) {
	body := `{
		"v": 1,
		"params": {"m": 2, "k": 3, "e": 4},
		"algo": "cuts+",
		"clusterer": "dbscan",
		"delta": 0.5,
		"lambda": 7,
		"workers": 4,
		"partitions": 3,
		"from": 10,
		"to": 20,
		"timeout_ms": 1500,
		"explain": true,
		"incremental": false
	}`
	var s QuerySpec
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatal(err)
	}
	if s.V != 1 || s.Algo != "cuts+" || s.Clusterer != "dbscan" || s.Delta != 0.5 ||
		s.Lambda != 7 || s.Workers != 4 || s.Partitions != 3 || s.TimeoutMS != 1500 || !s.Explain {
		t.Fatalf("decoded spec %+v", s)
	}
	if s.From == nil || *s.From != 10 || s.To == nil || *s.To != 20 {
		t.Fatalf("window not decoded: from=%v to=%v", s.From, s.To)
	}
	// "incremental" is a removed knob old clients may still send: it
	// decodes to nothing rather than to an error.
}

// TestSpecURLRoundTrip pins URLValues as the inverse of SpecFromURL for a
// fully-populated spec — the coordinator depends on this to address shards.
func TestSpecURLRoundTrip(t *testing.T) {
	from, to := model.Tick(5), model.Tick(42)
	in := QuerySpec{
		Params:     ParamsJSON{M: 2, K: 3, Eps: 4.25},
		Algo:       "cuts*",
		Clusterer:  "dbscan",
		Delta:      0.75,
		Lambda:     9,
		Workers:    4,
		Partitions: 2,
		From:       &from,
		To:         &to,
		TimeoutMS:  250,
		Explain:    true,
	}
	out, err := SpecFromURL(in.URLValues())
	if err != nil {
		t.Fatal(err)
	}
	in.V = SpecVersion // URLValues always stamps the version
	if out.Params != in.Params || out.Algo != in.Algo || out.Clusterer != in.Clusterer ||
		out.Delta != in.Delta || out.Lambda != in.Lambda || out.Workers != in.Workers ||
		out.Partitions != in.Partitions || out.TimeoutMS != in.TimeoutMS ||
		out.Explain != in.Explain || out.V != in.V {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
	if out.From == nil || *out.From != from || out.To == nil || *out.To != to {
		t.Fatalf("window lost: from=%v to=%v", out.From, out.To)
	}
}

func TestSpecFromURLLegacyEps(t *testing.T) {
	s, err := SpecFromURL(url.Values{"m": {"2"}, "k": {"3"}, "eps": {"1.5"}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Params.Eps != 1.5 {
		t.Fatalf("eps alias not honored: %+v", s.Params)
	}
	if _, err := SpecFromURL(url.Values{"m": {"2"}, "k": {"3"}}); err == nil {
		t.Fatal("missing e accepted")
	}
	if _, err := SpecFromURL(url.Values{"m": {"2.5"}, "k": {"3"}, "e": {"1"}}); err == nil {
		t.Fatal("fractional m accepted")
	}
}

func TestNormalize(t *testing.T) {
	base := QuerySpec{Params: ParamsJSON{M: 2, K: 3, Eps: 4}}

	t.Run("defaults", func(t *testing.T) {
		r, err := base.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if r.IsCMC || r.Algo != AlgoCuTSStar || r.Clusterer != "" {
			t.Fatalf("defaults wrong: %+v", r)
		}
		if r.Windowed || r.From != model.MinTick || r.To != model.MaxTick {
			t.Fatalf("unbounded window wrong: %+v", r)
		}
		if r.Spec.V != SpecVersion {
			t.Fatalf("normalized spec not stamped v%d: %+v", SpecVersion, r.Spec)
		}
	})

	t.Run("proxgraph_defaults_to_cmc", func(t *testing.T) {
		s := base
		s.Clusterer = "proxgraph"
		r, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if !r.IsCMC || r.Algo != AlgoCMC || r.Clusterer != "proxgraph" {
			t.Fatalf("proxgraph default wrong: %+v", r)
		}
	})

	t.Run("cmc_zeroes_cuts_knobs", func(t *testing.T) {
		s := base
		s.Algo, s.Delta, s.Lambda = "CMC", 0.5, 7
		r, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if r.Spec.Delta != 0 || r.Spec.Lambda != 0 || r.Spec.Algo != AlgoCMC {
			t.Fatalf("cmc spec not normalized: %+v", r.Spec)
		}
	})

	t.Run("nonpositive_cuts_knobs_are_automatic", func(t *testing.T) {
		s := base
		s.Delta, s.Lambda = math.NaN(), -3
		r, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if r.Spec.Delta != 0 || r.Spec.Lambda != 0 {
			t.Fatalf("δ/λ ≤ 0 not spelled 0: %+v", r.Spec)
		}
	})

	rejects := []struct {
		name   string
		mutate func(*QuerySpec)
		want   string
	}{
		{"bad_version", func(s *QuerySpec) { s.V = 2 }, "schema version"},
		{"bad_algo", func(s *QuerySpec) { s.Algo = "bfs" }, "unknown algorithm"},
		{"bad_clusterer", func(s *QuerySpec) { s.Clusterer = "kmeans" }, "unknown clusterer"},
		{"proxgraph_cuts", func(s *QuerySpec) { s.Clusterer = "proxgraph"; s.Algo = "cuts" }, "requires algo=cmc"},
		{"bad_params", func(s *QuerySpec) { s.Params.M = 0 }, "m"},
		{"nan_e", func(s *QuerySpec) { s.Params.Eps = math.NaN() }, "finite"},
		{"inf_e", func(s *QuerySpec) { s.Params.Eps = math.Inf(1) }, "finite"},
		{"neg_workers", func(s *QuerySpec) { s.Workers = -1 }, "workers"},
		{"neg_partitions", func(s *QuerySpec) { s.Partitions = -2 }, "partitions"},
		{"nan_timeout", func(s *QuerySpec) { s.TimeoutMS = math.NaN() }, "timeout_ms"},
		{"inf_timeout", func(s *QuerySpec) { s.TimeoutMS = math.Inf(1) }, "timeout_ms"},
		{"neg_timeout", func(s *QuerySpec) { s.TimeoutMS = -1 }, "timeout_ms"},
		{"inverted_window", func(s *QuerySpec) {
			lo, hi := model.Tick(5), model.Tick(2)
			s.From, s.To = &lo, &hi
		}, "inverted"},
	}
	for _, tc := range rejects {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mutate(&s)
			_, err := s.Normalize()
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestErrorEnvelope(t *testing.T) {
	e := NewError(404, "no such feed")
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"error":{"code":"not_found","message":"no such feed"}}`
	if string(b) != want {
		t.Fatalf("envelope %s, want %s", b, want)
	}
	codes := map[int]string{
		400: CodeBadRequest, 403: CodeForbidden, 404: CodeNotFound, 409: CodeConflict,
		410: CodeGone, 413: CodePayloadLarge, 429: CodeTooMany, 499: CodeClientClosed,
		502: CodeBadGateway, 504: CodeTimeout, 500: CodeInternal, 418: CodeInternal,
	}
	for status, code := range codes {
		if got := CodeForStatus(status); got != code {
			t.Errorf("CodeForStatus(%d) = %q, want %q", status, got, code)
		}
	}
}

// An unlabeled object is "o<ID>" by the ID the client's database gave it,
// not by the dense one a time slice renumbers it to, and a contact log is
// cut to the resolved window — the two decisions every surface takes here.
func TestLabelsAndContactLogFollowTheWindow(t *testing.T) {
	db := model.NewDB()
	for i, span := range [][2]model.Tick{{0, 3}, {0, 9}, {5, 9}} {
		label := ""
		if i == 2 {
			label = "named"
		}
		tr, err := model.NewTrajectory(label, []model.Sample{
			{T: span[0], P: geom.Pt(0, float64(i))}, {T: span[1], P: geom.Pt(9, float64(i))}})
		if err != nil {
			t.Fatal(err)
		}
		db.Add(tr)
	}
	sliced, orig := core.SliceTime(db, 5, 9) // object 0 ended at tick 3: 1 and 2 become 0 and 1
	c := core.Convoy{Objects: []model.ObjectID{0, 1}, Start: 5, End: 9}
	if got := ConvoyToJSON(c, DBLabels(sliced, orig...)).Objects; !reflect.DeepEqual(got, []string{"o1", "named"}) {
		t.Errorf("windowed names = %v, want [o1 named]", got)
	}
	if got := ConvoyToJSON(c, DBLabels(db)).Objects; !reflect.DeepEqual(got, []string{"o0", "o1"}) {
		t.Errorf("unwindowed names = %v, want [o0 o1]", got)
	}

	log := proxgraph.NewLog()
	for tick := model.Tick(0); tick < 10; tick++ {
		if err := log.Add("a", "b", tick, 1); err != nil {
			t.Fatal(err)
		}
	}
	from, to := model.Tick(3), model.Tick(6)
	for _, spec := range []QuerySpec{
		{Params: ParamsJSON{M: 2, K: 2, Eps: 1}, Clusterer: "proxgraph"},
		{Params: ParamsJSON{M: 2, K: 2, Eps: 1}, Clusterer: "proxgraph", From: &from, To: &to},
	} {
		res, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		cdb, cl, err := res.ContactLog(log)
		if err != nil {
			t.Fatal(err)
		}
		var st core.Stats
		got, err := core.NewQuery(res.Options(1, cl, &st)...).Run(context.Background(), cdb)
		if err != nil {
			t.Fatal(err)
		}
		want := core.Convoy{Objects: []model.ObjectID{0, 1}, Start: max(res.From, 0), End: min(res.To, 9)}
		if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Errorf("window [%d, %d]: convoys = %v, want [%v]", res.From, res.To, got, want)
		}
	}
}
