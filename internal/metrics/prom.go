package metrics

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WriteProm renders every registered family in the Prometheus text
// exposition format (version 0.0.4), families name-sorted and series
// label-sorted, so scrapes are diffable.
func (r *Registry) WriteProm(w io.Writer) error {
	return r.writeText(w, false)
}

// WriteOpenMetrics renders the registry in an OpenMetrics-flavoured text
// form: identical to WriteProm except that histogram bucket lines carry
// their exemplars (` # {trace_id="..."} value timestamp`) and the output
// ends with `# EOF`. It is how a latency bucket is correlated with a
// concrete trace in /debug/traces.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.writeText(w, true); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func (r *Registry) writeText(w io.Writer, exemplars bool) error {
	for _, f := range r.sortedFamilies() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		if f.kind == kindGaugeFunc {
			if _, err := fmt.Fprintf(w, "%s %s\n", f.name, fmtVal(f.fn())); err != nil {
				return err
			}
			continue
		}
		for _, s := range f.sorted() {
			if err := writeSeries(w, f, s, exemplars); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series, exemplars bool) error {
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelSet(f.labels, s.labelValues, ""), fmtVal(s.c.Value()))
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelSet(f.labels, s.labelValues, ""), fmtVal(s.g.Value()))
		return err
	default: // histogram
		cum := s.h.cumulative()
		bucket := func(i int, le string) error {
			suffix := ""
			if exemplars {
				if e := s.h.exemplarFor(i); e != nil {
					suffix = fmt.Sprintf(" # {trace_id=\"%s\"} %s %.3f", escapeLabel(e.traceID), fmtVal(e.value), e.unix)
				}
			}
			_, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name, labelSet(f.labels, s.labelValues, le), cum[i], suffix)
			return err
		}
		for i, bound := range s.h.bounds {
			if err := bucket(i, fmtVal(bound)); err != nil {
				return err
			}
		}
		if err := bucket(len(cum)-1, "+Inf"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelSet(f.labels, s.labelValues, ""), fmtVal(s.h.Sum())); err != nil {
			return err
		}
		// _count is the +Inf bucket of the same read, so the two agree in
		// every scrape however many observations land meanwhile.
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelSet(f.labels, s.labelValues, ""), cum[len(cum)-1])
		return err
	}
}

// labelSet renders {a="x",b="y"} (plus le when non-empty); "" when there
// are no labels at all.
func labelSet(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func fmtVal(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Handler serves the registry as a Prometheus scrape target. A scraper
// that negotiates OpenMetrics (an Accept header naming
// application/openmetrics-text, or ?exemplars=1 for humans with curl)
// gets the exemplar-bearing exposition; everyone else gets the plain
// 0.0.4 text format, byte-identical to before exemplars existed.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") ||
			req.URL.Query().Get("exemplars") == "1" {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			_ = r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w) // the peer going away mid-scrape is its problem
	})
}
