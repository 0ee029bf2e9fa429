package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proxgraph"
	"repro/internal/wire"
)

// Historical queries: POST /v1/feeds/{name}/query runs a batch convoy
// query over the tick window a durable feed's WAL retains. The window
// streams out of the log exactly as clients ingested it — verbatim ticks,
// gaps included — and feeds the same core.Query engine batch queries use,
// so a historical answer over [from, to] equals a batch query over the
// same stream slice. Unlike /v1/query the answer is never cached: the log
// grows with every tick, so a window's contents are a moving target.

// historyQuery validates (through the canonical wire.QuerySpec validator),
// reads the window and runs the discovery. The run holds a query-pool slot
// like a batch query, so a burst of historical queries cannot starve the
// engine.
func (s *Server) historyQuery(ctx context.Context, f *feed, req HistoryQueryRequest) (HistoryQueryResponse, error) {
	if req.Algo == "" {
		// A historical query replays a live stream's ticks, where CMC is
		// the canonical semantics; the CuTS family stays opt-in.
		req.Algo = AlgoCMC
	}
	pl, err := plan(QueryRequest{QuerySpec: req}, s.cfg.MaxWorkersPerQuery)
	if err != nil {
		return HistoryQueryResponse{}, err
	}
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	t0 := time.Now()
	batches, err := f.window(ctx, pl.res.From, pl.res.To)
	if err != nil {
		return HistoryQueryResponse{}, err
	}
	resp := HistoryQueryResponse{
		Convoys:   []ConvoyJSON{},
		Params:    pl.res.Spec.Params,
		Algo:      pl.res.Algo,
		Clusterer: pl.res.Clusterer,
		From:      req.From,
		To:        req.To,
		Ticks:     len(batches),
	}
	opts := []core.Option{core.WithParams(pl.res.P), core.WithWorkers(pl.workers)}
	var db *model.DB
	if pl.res.Clusterer == proxgraph.Backend {
		// Cluster the logged contact edges: rebuild the window's edge log
		// and let the graph backend read it tick by tick, exactly like an
		// uploaded a,b,t,w contact log.
		log := proxgraph.NewLog()
		edges := 0
		for _, b := range batches {
			for _, e := range b.Edges {
				if err := log.Add(e.A, e.B, b.T, e.W); err != nil {
					return HistoryQueryResponse{}, fmt.Errorf("serve: history window edges: %w", err)
				}
				edges++
			}
		}
		if edges == 0 {
			return resp, nil // no contacts in the window: no convoys
		}
		if db, err = log.DB(); err != nil {
			return HistoryQueryResponse{}, fmt.Errorf("serve: history window edges: %w", err)
		}
		opts = append(opts, core.WithClusterer(log.Clusterer()))
	} else {
		if db, err = windowDB(batches); err != nil {
			return HistoryQueryResponse{}, err
		}
		if db.Len() == 0 {
			return resp, nil // no positions in the window: no convoys
		}
	}
	resp.Objects = db.Len()
	if pl.res.IsCMC {
		opts = append(opts, core.WithCMC())
	} else {
		opts = append(opts,
			core.WithVariant(pl.res.Variant),
			core.WithDelta(pl.res.Spec.Delta),
			core.WithLambda(pl.res.Spec.Lambda))
	}
	var st core.Stats
	opts = append(opts, core.WithStats(&st))
	release, err := s.q.acquire(ctx)
	if err != nil {
		return HistoryQueryResponse{}, err
	}
	defer release()
	res, err := core.NewQuery(opts...).Run(ctx, db)
	if err != nil {
		return HistoryQueryResponse{}, err
	}
	if !pl.res.IsCMC {
		js := wire.StatsToJSON(st)
		resp.Stats = &js
	}
	labels := wire.DBLabels(db)
	for _, c := range res {
		resp.Convoys = append(resp.Convoys, wire.ConvoyToJSON(c, labels))
	}
	resp.ElapsedMS = float64(time.Since(t0).Microseconds()) / 1000
	return resp, nil
}
