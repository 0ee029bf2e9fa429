package serve

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"repro/internal/trace"
)

// Request-scoped observability plumbing: every request gets an ID, a
// logger carrying that ID (and the trace ID when the request is sampled)
// and — sampling permitting — a trace rooted at the middleware. Handlers
// pull the logger back out of the context with loggerFrom, so any record
// they emit joins the request's IDs without further threading.

// newRequestID mints a 16-hex-digit request correlation ID. Randomness
// (not a counter) keeps IDs meaningful across restarts and replicas.
func newRequestID() string {
	var b [8]byte
	u := rand.Uint64()
	for i := range b {
		b[i] = byte(u >> (8 * i))
	}
	return hex.EncodeToString(b[:])
}

// loggerKey carries the request-scoped *slog.Logger in a context.
type loggerKey struct{}

func withLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, loggerKey{}, l)
}

// loggerFrom returns the request-scoped logger, or fallback outside a
// request.
func loggerFrom(ctx context.Context, fallback *slog.Logger) *slog.Logger {
	if l, ok := ctx.Value(loggerKey{}).(*slog.Logger); ok {
		return l
	}
	return fallback
}

// explainParam reports whether the URL asks for a query profile
// (?explain=true). Unparseable values read as false here and are
// rejected later by queryFromURL's strict parse.
func explainParam(r *http.Request) bool {
	raw := r.URL.Query().Get("explain")
	if raw == "" {
		return false
	}
	v, err := strconv.ParseBool(raw)
	return err == nil && v
}

// msFloat renders a duration as float milliseconds for log records,
// matching the wire types' *_ms convention.
func msFloat(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// unixNow is the exemplar timestamp: seconds since the epoch.
func unixNow() float64 { return float64(time.Now().UnixMilli()) / 1000 }

// TracesHandler serves a tracer's recent-trace ring as a JSON array, newest
// first: GET /debug/traces?min_ms=N keeps only traces at least N ms long.
// It lives here, not in internal/trace, so the tracing kernel links no HTTP
// stack.
func TracesHandler(t *trace.Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var minDur time.Duration
		if v := r.URL.Query().Get("min_ms"); v != "" {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil || ms < 0 {
				http.Error(w, "min_ms: want a non-negative number", http.StatusBadRequest)
				return
			}
			minDur = time.Duration(ms * float64(time.Millisecond))
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(t.Recent(minDur)) //nolint:errcheck // best-effort write to client
	})
}
