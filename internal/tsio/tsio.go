// Package tsio reads and writes trajectory databases as CSV, the exchange
// format used by the command-line tools and examples. The format is one
// sample per line:
//
//	obj,t,x,y
//
// with a mandatory header line. `obj` is an arbitrary object label, `t` an
// integer tick and `x`, `y` floating-point coordinates. Samples of one
// object may appear in any order; they are sorted by tick at load time.
// Objects are assigned dense IDs in order of first appearance, which makes
// loading deterministic.
package tsio

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/geom"
	"repro/internal/model"
)

// finite is the shared usability predicate (see geom.Finite): the CSV and
// tick-block readers reject non-finite coordinates, and the edge reader
// non-finite weights, at parse time. The CTB decoder leaves coordinates to
// model.NewTrajectory, which refuses them for every reader.
func finite(f float64) bool { return geom.Finite(f) }

// header is the mandatory first CSV line.
var header = []string{"obj", "t", "x", "y"}

// WriteCSV writes the database in CSV format. Objects are emitted in ID
// order, samples in tick order; empty labels fall back to "o<ID>".
func WriteCSV(w io.Writer, db *model.DB) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("tsio: write header: %w", err)
	}
	for _, tr := range db.Trajectories() {
		label := tr.Label
		if label == "" {
			label = fmt.Sprintf("o%d", tr.ID)
		}
		for _, s := range tr.Samples {
			rec := []string{
				label,
				strconv.FormatInt(int64(s.T), 10),
				strconv.FormatFloat(s.P.X, 'g', -1, 64),
				strconv.FormatFloat(s.P.Y, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("tsio: write sample: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a CSV trajectory file into a database.
func ReadCSV(r io.Reader) (*model.DB, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	first, err := cr.Read()
	if err == io.EOF {
		return model.NewDB(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("tsio: read header: %w", err)
	}
	for i, want := range header {
		if first[i] != want {
			return nil, fmt.Errorf("tsio: bad header %v, want %v", first, header)
		}
	}
	type obj struct {
		label   string
		samples []model.Sample
	}
	var order []*obj
	byLabel := map[string]*obj{}
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
		t, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tsio: line %d: bad tick %q: %w", line, rec[1], err)
		}
		x, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("tsio: line %d: bad x %q: %w", line, rec[2], err)
		}
		y, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("tsio: line %d: bad y %q: %w", line, rec[3], err)
		}
		if !finite(x) || !finite(y) {
			return nil, fmt.Errorf("tsio: line %d: non-finite coordinates (%s, %s)", line, rec[2], rec[3])
		}
		o := byLabel[rec[0]]
		if o == nil {
			o = &obj{label: rec[0]}
			byLabel[rec[0]] = o
			order = append(order, o)
		}
		o.samples = append(o.samples, model.Sample{T: model.Tick(t), P: geom.Pt(x, y)})
	}
	db := model.NewDB()
	for _, o := range order {
		sort.Slice(o.samples, func(i, j int) bool { return o.samples[i].T < o.samples[j].T })
		for i := 1; i < len(o.samples); i++ {
			if o.samples[i].T == o.samples[i-1].T {
				return nil, fmt.Errorf("tsio: object %q has two samples at tick %d", o.label, o.samples[i].T)
			}
		}
		tr, err := model.NewTrajectory(o.label, o.samples)
		if err != nil {
			return nil, fmt.Errorf("tsio: object %q: %w", o.label, err)
		}
		db.Add(tr)
	}
	return db, nil
}
