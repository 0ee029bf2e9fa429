package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseText parses a Prometheus text exposition (the format WriteProm
// emits; any 0.0.4 exposition works) into series-name → value, keyed by
// the series as written: `name` or `name{label="v",...}`. Comment and
// blank lines are skipped; a malformed sample line is an error. The load
// generator uses this to read back the server's own request accounting.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Drop an OpenMetrics exemplar suffix (` # {trace_id="..."} v ts`)
		// before locating the series key: the exemplar's own '}' would
		// otherwise be mistaken for the label set's closing brace. This
		// assumes label values never contain " # ", which holds for every
		// exposition this repository produces.
		if i := strings.Index(line, " # "); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		// Label values may contain spaces, so the series key cannot be
		// found by splitting on whitespace alone: when a label set is
		// present the key runs to its closing brace (the last '}' on the
		// line — the fields after it are numeric), otherwise to the first
		// whitespace. The value is the first field after the key; an
		// optional trailing timestamp is ignored.
		var key, rest string
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics: parse line %d: unterminated label set in %q", lineNo, line)
			}
			key, rest = line[:j+1], line[j+1:]
		} else if cut := strings.IndexAny(line, " \t"); cut >= 0 {
			key, rest = line[:cut], line[cut:]
		} else {
			return nil, fmt.Errorf("metrics: parse line %d: no value in %q", lineNo, line)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: parse line %d: no value in %q", lineNo, line)
		}
		val, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: parse line %d: bad value in %q: %v", lineNo, line, err)
		}
		out[key] = val
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: parse: %w", err)
	}
	return out, nil
}

// Sum adds up every series of exactly the given family in a ParseText
// result: `family` and `family{...}` match; `family_bucket` and other
// suffixed families do not.
func Sum(samples map[string]float64, family string) float64 {
	total := 0.0
	for k, v := range samples {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}
