package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Distributed queries. A convoyd fleet splits one batch query two ways:
//
//   - Coordinator (convoyd -shards host:port,...): POST /v1/query arrives
//     here as usual; computeSharded splits the database's time range into
//     len(Shards) overlapping windows and fans them out over the shard RPC,
//     merging the label-space partials into the exact global answer. The
//     fan-out lives inside the query engine's compute step, so sharded
//     queries share the LRU cache, the in-flight dedup of identical
//     concurrent queries and the worker-slot bound with local ones — a
//     stampede of identical queries costs one fan-out, not N.
//
//   - Shard (convoyd -shard): POST /v1/shard/query?v=1 accepts the same
//     database bytes with an explicit from/to window in the URL and answers
//     the window's exact partial (wire.ShardQueryResponse). The shard runs
//     the full local engine — its own cache, dedup and worker pool — keyed
//     by (digest, spec, window).

// errShardDisabled answers 403 on /v1/shard/query when the server was not
// started in shard mode.
var errShardDisabled = errors.New("serve: shard RPC disabled (start convoyd with -shard)")

// handleShardQuery answers one window of a distributed query: the body is
// the full database upload, the URL carries the canonical spec with the
// assigned from/to window, and ?v= pins the RPC version.
func (s *Server) handleShardQuery(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.ShardMode {
		writeErr(w, errShardDisabled)
		return
	}
	q := r.URL.Query()
	if v := q.Get("v"); v != strconv.Itoa(wire.ShardRPCVersion) {
		writeErr(w, badRequest(fmt.Errorf("serve: shard RPC version %q unsupported (want v=%d)", v, wire.ShardRPCVersion)))
		return
	}
	req, err := queryFromURL(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if req.From == nil || req.To == nil {
		writeErr(w, badRequest(errors.New("serve: shard query requires an explicit from/to window")))
		return
	}
	data, err := readUpload(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp, err := s.q.run(r.Context(), data, req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.ShardQueryResponse{
		V:         wire.ShardRPCVersion,
		From:      *req.From,
		To:        *req.To,
		Convoys:   resp.Convoys,
		Digest:    resp.Digest,
		Algo:      resp.Algo,
		Cache:     resp.Cache == "hit" || resp.Cache == "dedup",
		ElapsedMS: resp.ElapsedMS,
	})
}

// computeSharded is the coordinator's compute step: the loaded database
// only anchors the time range and the label↔ID mapping; the query itself
// fans out over the shard fleet (one overlapping window each, the raw bytes
// to every shard) and the partial answers merge into the exact global
// answer, filled into resp (compute's answer header). The caller holds a
// worker slot and the flight for this cache key, exactly like a local
// compute.
func (e *queryEngine) computeSharded(ctx context.Context, qsp *trace.Span, resp *QueryResponse, in loaded, pl queryPlan) error {
	db := in.db
	lo, hi, ok := db.TimeRange()
	if !ok {
		return nil // empty database: empty answer
	}
	// A client from/to intersects with the data's own range; an empty
	// intersection is an empty answer, not an error.
	if pl.res.From > lo {
		lo = pl.res.From
	}
	if pl.res.To < hi {
		hi = pl.res.To
	}
	if lo > hi {
		return nil
	}
	spec := pl.res.Spec
	spec.Explain = false // profiles describe local runs; shards answer data only
	co := dist.Coordinator{Shards: e.cfg.Shards}
	shardResps, windows, err := co.Query(ctx, in.data, spec, lo, hi)
	if err != nil {
		return err
	}
	qsp.Int("shards", int64(len(windows)))
	parts := make([][]ConvoyJSON, len(shardResps))
	for i, sr := range shardResps {
		parts[i] = sr.Convoys
	}
	// Anchor the label↔ID mapping to this coordinator's own parse, so the
	// merged output is ordered exactly like a single-node answer.
	named := wire.DBLabels(db)
	index := make(map[string]model.ObjectID, db.Len())
	for i := db.Len() - 1; i >= 0; i-- { // first occurrence wins on duplicates
		id := model.ObjectID(i)
		index[named(id)] = id
	}
	merged, err := dist.Merge(windows, parts, pl.res.P,
		func(lb string) (model.ObjectID, bool) { id, ok := index[lb]; return id, ok },
		named)
	if err != nil {
		return err
	}
	resp.Convoys = merged
	resp.Shards = len(windows)
	return nil
}
