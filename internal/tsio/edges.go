package tsio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/model"
)

// Proximity-log exchange format: coordinate-free observations "objects a
// and b were in contact at tick t with weight w", one edge per line:
//
//	a,b,t,w
//
// with a mandatory header line. `a` and `b` are arbitrary object labels,
// `t` an integer tick and `w` a floating-point edge weight (contact
// duration, signal strength, …). Edges may appear in any order; the
// reader preserves file order and leaves semantic validation (self-loops,
// duplicate edges, weight sign) to the consumer — see the proxgraph
// package, which builds clusterable logs from these records.

// EdgeRecord is one parsed proximity observation.
type EdgeRecord struct {
	A, B string
	T    model.Tick
	W    float64
}

// edgeHeader is the mandatory first CSV line of an edge list.
var edgeHeader = []string{"a", "b", "t", "w"}

// ReadEdgeCSV parses a CSV proximity-edge file, preserving file order.
// Non-finite weights are rejected at parse time (like coordinates in
// ReadCSV); everything else is the consumer's concern.
func ReadEdgeCSV(r io.Reader) ([]EdgeRecord, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	first, err := cr.Read()
	if err == io.EOF {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tsio: read header: %w", err)
	}
	for i, want := range edgeHeader {
		if first[i] != want {
			return nil, fmt.Errorf("tsio: bad header %v, want %v", first, edgeHeader)
		}
	}
	var edges []EdgeRecord
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("tsio: line %d: %w", line, err)
		}
		t, err := strconv.ParseInt(rec[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tsio: line %d: bad tick %q: %w", line, rec[2], err)
		}
		w, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("tsio: line %d: bad weight %q: %w", line, rec[3], err)
		}
		if !finite(w) {
			return nil, fmt.Errorf("tsio: line %d: non-finite weight %s", line, rec[3])
		}
		edges = append(edges, EdgeRecord{A: rec[0], B: rec[1], T: model.Tick(t), W: w})
	}
	return edges, nil
}
