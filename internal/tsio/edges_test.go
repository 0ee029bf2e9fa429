package tsio

import (
	"bytes"
	"encoding/csv"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// writeEdgeCSV writes edge records in the format ReadEdgeCSV reads, in
// slice order.
func writeEdgeCSV(w io.Writer, edges []EdgeRecord) error {
	cw := csv.NewWriter(w)
	cw.Write(edgeHeader)
	for _, e := range edges {
		cw.Write([]string{e.A, e.B, strconv.FormatInt(int64(e.T), 10), strconv.FormatFloat(e.W, 'g', -1, 64)})
	}
	cw.Flush()
	return cw.Error()
}

func TestEdgeCSVRoundTrip(t *testing.T) {
	edges := []EdgeRecord{
		{A: "x", B: "y", T: 3, W: 1.5},
		{A: "y", B: "z", T: 1, W: 0.25},
		{A: "x", B: "z", T: 3, W: 2},
	}
	var buf bytes.Buffer
	if err := writeEdgeCSV(&buf, edges); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, edges) {
		t.Fatalf("round trip = %v, want %v", back, edges)
	}
}

func TestReadEdgeCSVErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":    "obj,t,x,y\nx,y,0,1\n",
		"bad tick":      "a,b,t,w\nx,y,zero,1\n",
		"bad weight":    "a,b,t,w\nx,y,0,heavy\n",
		"nan weight":    "a,b,t,w\nx,y,0,nan\n",
		"inf weight":    "a,b,t,w\nx,y,0,1e999\n",
		"missing field": "a,b,t,w\nx,y,0\n",
	}
	for name, csv := range cases {
		if _, err := ReadEdgeCSV(strings.NewReader(csv)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Empty input and header-only input are empty logs, not errors.
	for _, csv := range []string{"", "a,b,t,w\n"} {
		edges, err := ReadEdgeCSV(strings.NewReader(csv))
		if err != nil || len(edges) != 0 {
			t.Errorf("input %q: edges=%v err=%v, want empty, nil", csv, edges, err)
		}
	}
}
