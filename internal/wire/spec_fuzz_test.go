package wire

import (
	"encoding/json"
	"net/url"
	"reflect"
	"testing"
)

// FuzzQuerySpec holds the query decoder to its contract on arbitrary input:
// a JSON body (through QuerySpec.UnmarshalJSON) and a URL query string
// (through SpecFromURL). Normalize never panics on whatever either decodes,
// and every spec it accepts survives the trip a coordinator makes to its
// shards — URLValues, SpecFromURL, Normalize — resolving to an equal
// Resolved.
func FuzzQuerySpec(f *testing.F) {
	for _, seed := range []struct{ body, query string }{
		{`{"params":{"m":3,"k":4,"e":1.5}}`, "m=3&k=4&e=1.5"},
		{`{"m":3,"k":4,"eps":1.5,"algo":"CMC"}`, "m=3&k=4&eps=1.5&algo=cmc"},
		{`{"v":1,"params":{"m":2,"k":5,"e":1},"algo":"cuts+","delta":0.7,"lambda":3,"workers":2,"partitions":3}`,
			"v=1&m=2&k=5&e=1&algo=cuts%2B&delta=0.7&lambda=3&workers=2&partitions=3"},
		{`{"params":{"m":2,"k":2,"e":1},"clusterer":"proxgraph","from":-5,"to":9,"timeout_ms":250,"explain":true}`,
			"m=2&k=2&e=1&clusterer=proxgraph&from=-5&to=9&timeout_ms=250&explain=true"},
		{`{"params":{"m":2,"k":2,"e":1},"clusterer":"dbscan","algo":"cmc"}`, "m=2&k=2&e=1&clusterer=dbscan&algo=cmc"},
		{`{"params":{"m":2,"k":2,"e":1},"clusterer":"DBSCAN","from":-5}`, "m=2&k=2&e=1&clusterer=DBSCAN&to=9"},
		{`{"params":{"m":2,"k":2,"e":1},"delta":-1,"lambda":-4}`, "m=2&k=2&e=1&delta=-1&lambda=-4"},
		{`{"params":null,"m":1,"k":1,"e":0}`, "m=1&k=1&e=0&from=9&to=3"},
		{`{"v":2}`, "m=2&k=2&e=NaN&delta=NaN"},
	} {
		f.Add([]byte(seed.body), seed.query)
	}
	f.Fuzz(func(t *testing.T, body []byte, query string) {
		var specs []QuerySpec
		var s QuerySpec
		if json.Unmarshal(body, &s) == nil {
			specs = append(specs, s)
		}
		if q, err := url.ParseQuery(query); err == nil {
			if s, err := SpecFromURL(q); err == nil {
				specs = append(specs, s)
			}
		}
		for _, s := range specs {
			r, err := s.Normalize()
			if err != nil {
				continue
			}
			back, err := SpecFromURL(s.URLValues())
			if err != nil {
				t.Fatalf("%+v: its own URL form does not decode: %v", s, err)
			}
			r2, err := back.Normalize()
			if err != nil {
				t.Fatalf("%+v: accepted, but its URL form %q is rejected: %v", s, s.URLValues().Encode(), err)
			}
			if !reflect.DeepEqual(r, r2) {
				t.Fatalf("URL round trip changed the query\n spec: %+v\n  was: %+v\n  now: %+v", s, r, r2)
			}
		}
	})
}
