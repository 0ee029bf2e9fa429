package wire

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/datagen"
)

// commuteTick spells one mid-domain tick of datagen.Commute(scale, 1) the
// way every client does — json.Marshal of a TicksRequest (bench/ladder
// hand-spells the same keys).
func commuteTick(tb testing.TB, scale float64) (body []byte, positions int) {
	tb.Helper()
	db := datagen.Commute(scale, 1).Generate()
	lo, hi, _ := db.TimeRange()
	batch := TickBatch{T: lo + (hi-lo)/2}
	ids, pts := db.SnapshotAt(batch.T)
	for i, id := range ids {
		batch.Positions = append(batch.Positions, Position{ID: db.Traj(id).Label, X: pts[i].X, Y: pts[i].Y})
	}
	body, err := json.Marshal(TicksRequest{Ticks: []TickBatch{batch}})
	if err != nil {
		tb.Fatal(err)
	}
	return body, len(ids)
}

// tickSpellings names, for each spelling of a ticks body, whether the
// scanner owns it (scanned) or hands it to encoding/json. They also seed
// FuzzDecodeTicks.
var tickSpellings = []struct {
	name    string
	body    string
	scanned bool
}{
	{"ladder", `{"ticks":[{"t":7,"positions":[{"id":"a","x":1.5,"y":-2e-05},{"id":"b","x":0,"y":1e+21}]}]}`, true},
	{"two_batches", `{"ticks":[{"t":1,"positions":[]},{"t":2,"positions":[{"id":"a","x":0,"y":0}]}]}`, true},
	{"bare_batch", `{"t":3,"positions":[{"id":"a","x":0,"y":0},{"id":"b","x":0.5,"y":0}]}`, true},
	{"empty_ticks", `{"ticks":[]}`, true},
	{"empty_batch", `{"ticks":[{}]}`, true},
	{"missing_fields", `{"ticks":[{"positions":[{},{"id":"a"}]}]}`, true},
	{"whitespace", " {\n\t\"ticks\" : [ { \"t\" : 1 , \"positions\" : [ { \"id\" : \"a\" , \"x\" : 1 , \"y\" : 2 } ] } ]\r\n} ", true},
	{"utf8_label", `{"t":1,"positions":[{"id":"車-7 🚚","x":1,"y":2}]}`, true},
	{"brackets_in_label", `{"t":1,"positions":[{"id":"]{[}","x":1,"y":2},{"id":"b","x":1,"y":2}]}`, true},
	{"negative_zero", `{"t":-0,"positions":[{"id":"a","x":-0,"y":-0.0}]}`, true},
	{"underflow", `{"t":1,"positions":[{"id":"a","x":1e-999,"y":0}]}`, true},

	{"null_ticks_bare_positions", `{"ticks":null,"positions":[]}`, false},
	// "edges" is a key of the contact batches feeds no longer take: unknown
	// to the scanner, ignored by encoding/json.
	{"bare_edges_only", `{"t":3,"edges":[{"a":"p","b":"q","w":0.25}]}`, false},
	{"positions_and_edges", `{"ticks":[{"edges":[{"w":1,"b":"q","a":"p"}],"positions":[{"y":2,"x":1,"id":"p"}],"t":-4}]}`, false},
	{"ticks_and_positions", `{"ticks":[],"positions":[]}`, false},
	{"escaped_label", `{"t":1,"positions":[{"id":"a\nb\"c","x":1,"y":2}]}`, false},
	{"surrogate_pair_label", `{"t":1,"positions":[{"id":"\ud83d\ude9a","x":1,"y":2}]}`, false},
	{"lone_surrogate_label", `{"t":1,"positions":[{"id":"\ud83d","x":1,"y":2}]}`, false},
	{"invalid_utf8_label", "{\"t\":1,\"positions\":[{\"id\":\"a\xffb\",\"x\":1,\"y\":2}]}", false},
	{"escaped_key", `{"\u0074":1,"positions":[]}`, false},
	{"folded_keys", `{"Ticks":[{"T":1,"Positions":[{"ID":"a","X":1,"Y":2}]}]}`, false},
	{"duplicate_positions", `{"t":1,"positions":[{"id":"a","x":1,"y":2}],"positions":[{"id":"b"}]}`, false},
	{"duplicate_x", `{"t":1,"positions":[{"id":"a","x":1,"x":3,"y":2}]}`, false},
	{"unknown_key_nested", `{"t":1,"meta":{"a":[1,{"b":null}]},"positions":[{"id":"a","x":1,"y":2,"z":[3]}]}`, false},
	{"null_positions", `{"t":1,"positions":null,"edges":[]}`, false},
	{"null_id", `{"t":1,"positions":[{"id":null,"x":1,"y":2}]}`, false},
	{"null_element", `{"t":1,"positions":[null]}`, false},
	{"fractional_tick", `{"t":1.0,"positions":[]}`, false},
	{"exponent_tick", `{"t":1e2,"positions":[]}`, false},
	{"tick_out_of_range", `{"t":9223372036854775808,"positions":[]}`, false},
	{"float_out_of_range", `{"t":1,"positions":[{"id":"a","x":1e999,"y":2}]}`, false},
	{"string_number", `{"t":1,"positions":[{"id":"a","x":"1","y":2}]}`, false},
	{"leading_zero", `{"t":01,"positions":[]}`, false},
	{"plus_sign", `{"t":+1,"positions":[]}`, false},
	{"bare_dot", `{"t":1,"positions":[{"id":"a","x":.5,"y":2}]}`, false},
	{"hex_float", `{"t":1,"positions":[{"id":"a","x":0x1p3,"y":2}]}`, false},
	{"inf", `{"t":1,"positions":[{"id":"a","x":Inf,"y":2}]}`, false},
	{"control_byte_in_label", "{\"t\":1,\"positions\":[{\"id\":\"a\tb\",\"x\":1,\"y\":2}]}", false},
	{"trailing_comma", `{"t":1,"positions":[{"id":"a","x":1,"y":2},]}`, false},
	{"trailing_garbage", `{"ticks":[]} x`, false},
	{"second_value", `{"ticks":[]}{"ticks":[]}`, false},
	{"truncated", `{"ticks":[{"t":1,"positions":[{"id":"a","x":1`, false},
	{"bare_without_positions", `{"t":1}`, false},
	{"empty_object", `{}`, false},
	{"empty_body", ``, false},
	{"array", `[{"t":1,"positions":[]}]`, false},
	{"positions_object", `{"t":1,"positions":{}}`, false},
	{"bom", "\ufeff" + `{"ticks":[]}`, false},
}

// checkDecodeTicks is the decoder's whole contract on one body: the
// scanner, where it claims the body, and DecodeTicks always, return what
// decodeTicksReflect returns — equal batches, or the same rejection.
func checkDecodeTicks(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := decodeTicksReflect(body)
	if got, ok := scanTicks(string(body)); ok && (wantErr != nil || !reflect.DeepEqual(got, want)) {
		t.Fatalf("scanner claimed %q\n got  %#v\n want %#v, %v", body, got, want, wantErr)
	}
	got, err := DecodeTicks(body)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeTicks(%q)\n got  %#v, %v\n want %#v, %v", body, got, err, want, wantErr)
	}
}

func TestDecodeTicksSpellings(t *testing.T) {
	for _, tc := range tickSpellings {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := scanTicks(tc.body); ok != tc.scanned {
				t.Errorf("scanned = %v, want %v", ok, tc.scanned)
			}
			checkDecodeTicks(t, []byte(tc.body))
		})
	}
	t.Run("edges_ignored", func(t *testing.T) {
		if _, err := DecodeTicks([]byte(`{"t":3,"edges":[{"a":"p","b":"q","w":0.25}]}`)); err == nil {
			t.Error("an edges-only batch has no positions, yet decoded")
		}
		got, err := DecodeTicks([]byte(`{"ticks":[{"edges":[{"w":1,"b":"q","a":"p"}],"positions":[{"y":2,"x":1,"id":"p"}],"t":-4}]}`))
		want := []TickBatch{{T: -4, Positions: []Position{{ID: "p", X: 1, Y: 2}}}}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("positions beside edges = %+v, %v; want %+v", got, err, want)
		}
	})
	t.Run("commute_tick", func(t *testing.T) {
		body, n := commuteTick(t, 0.1)
		got, ok := scanTicks(string(body))
		if !ok || len(got) != 1 || len(got[0].Positions) != n {
			t.Fatalf("scanner did not own the marshalled spelling of a %d-position tick (ok=%v)", n, ok)
		}
		checkDecodeTicks(t, body)
	})
}

// TestDecodeTicksSizeHint: a label holding the bytes the capacity hint
// counts must cost capacity only, and the hint stays bounded by the body.
func TestDecodeTicksSizeHint(t *testing.T) {
	sc := tickScanner{s: `{"id":"{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{"}]`}
	if got, most := sc.sizeHint(), len(sc.s)/3+1; got > most {
		t.Errorf("sizeHint = %d for a %d-byte array, want ≤ %d", got, len(sc.s), most)
	}
	batches, ok := scanTicks(`{"t":1,"positions":[{"id":"]"},{"id":"b"},{"id":"c"}]}`)
	if !ok || len(batches[0].Positions) != 3 {
		t.Errorf("positions past an under-counted hint = %+v, %v", batches, ok)
	}
}

// FuzzDecodeTicks holds the scanner to its specification on arbitrary
// bodies.
func FuzzDecodeTicks(f *testing.F) {
	for _, tc := range tickSpellings {
		f.Add([]byte(tc.body))
	}
	body, _ := commuteTick(f, 0.02)
	f.Add(body)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeTicks(t, body)
	})
}

var sinkBatches []TickBatch

// BenchmarkDecodeTicks is the feed's decode layer on one tick of
// bench/ladder's feed-commute stream: the scanner against the encoding/json
// reference it replaced on the hot path.
func BenchmarkDecodeTicks(b *testing.B) {
	body, n := commuteTick(b, 4)
	for _, bc := range []struct {
		name   string
		decode func([]byte) ([]TickBatch, error)
	}{
		{"scanner", DecodeTicks},
		{"reference", decodeTicksReflect},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				batches, err := bc.decode(body)
				if err != nil || len(batches[0].Positions) != n {
					b.Fatalf("decoded %d batches, %v", len(batches), err)
				}
				sinkBatches = batches
			}
		})
	}
}
