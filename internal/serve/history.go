package serve

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/feed"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Historical queries: POST /v1/feeds/{name}/query runs a batch convoy
// query over the tick window a durable feed's WAL retains. The window
// comes out of the log exactly as clients ingested it — verbatim ticks,
// gaps included — and feeds the same core.Query engine batch queries use
// (which fills sampling gaps by its one virtual-location rule), so a
// historical answer over [from, to] equals a batch query over the same
// stream slice. Unlike /v1/query the answer is never cached: the log
// grows with every tick, so a window's contents are a moving target.
//
// The read is record → column: feed.Feed.ReadWindow, under the feed's
// lock, has the log CRC-check every record of every touched segment and
// walks the in-window ones (tsio.WalkTickBlock validates each) while a
// windowFold appends their fields straight to what the query mines.

// windowFold is the tsio.TickBlockVisitor accumulating a history window's
// positions as one sample column per object in first-seen order (labels,
// views into the segment buffer, are interned: copied once per object,
// looked up without allocating).
//
// A feed names its objects in much the same order tick after tick, so a
// label is first checked against the object at the same position in the
// previous block, and the intern map is asked only on a mismatch. Folds
// come from foldPool and go back once the query that mined their columns
// returns, so a stream of history queries reuses the columns' capacity
// instead of regrowing ~300 of them per query.
type windowFold struct {
	t       model.Tick // the block being walked
	ticks   int        // blocks seen
	ids     map[string]model.ObjectID
	labels  []string
	samples [][]model.Sample
	// prev holds the objects of the previous block by position, cur those
	// of the block being walked.
	prev, cur []model.ObjectID
}

var foldPool = sync.Pool{New: func() any { return &windowFold{ids: map[string]model.ObjectID{}} }}

// newWindowFold takes an empty fold from the pool.
func newWindowFold() *windowFold { return foldPool.Get().(*windowFold) }

// release empties the fold and returns it to the pool, keeping its
// columns' capacity. Nothing may use the fold, or a database built from
// it, afterwards.
func (w *windowFold) release() {
	clear(w.ids)
	clear(w.labels) // drop the label strings; the columns are overwritten on reuse
	w.t, w.ticks, w.labels, w.samples = 0, 0, w.labels[:0], w.samples[:0]
	w.prev, w.cur = w.prev[:0], w.cur[:0]
	foldPool.Put(w)
}

func (w *windowFold) Block(t model.Tick, _ int) {
	w.t, w.ticks = t, w.ticks+1
	w.prev, w.cur = w.cur, w.prev[:0]
}

func (w *windowFold) Position(label []byte, x, y float64) {
	k := len(w.cur)
	var id model.ObjectID
	if k < len(w.prev) && w.labels[w.prev[k]] == string(label) {
		id = w.prev[k]
	} else if known, ok := w.ids[string(label)]; ok {
		id = known
	} else {
		id = len(w.labels)
		w.labels = append(w.labels, string(label))
		w.ids[w.labels[id]] = id
		if id < cap(w.samples) {
			w.samples = w.samples[:id+1]
			w.samples[id] = w.samples[id][:0]
		} else {
			w.samples = append(w.samples, nil)
		}
	}
	w.cur = append(w.cur, id)
	w.samples[id] = append(w.samples[id], model.Sample{T: w.t, P: geom.Pt(x, y)})
}

// db assembles the folded columns into a trajectory database — the
// historical query's bridge into core.Query. Samples are in tick order
// because records replay in ingestion order and ticks advance strictly.
func (w *windowFold) db() (*model.DB, error) {
	db := model.NewDB()
	for i, label := range w.labels {
		tr, err := model.NewTrajectory(label, w.samples[i])
		if err != nil {
			return nil, fmt.Errorf("serve: window database: %w", err)
		}
		db.Add(tr)
	}
	return db, nil
}

// historyQuery validates (through the canonical wire.QuerySpec validator),
// reads the window and runs the discovery, metered as an uncached query.
// The run holds a query-pool slot like a batch query, so a burst of
// historical queries cannot starve the engine, and is traced and explained
// like one.
func (s *Server) historyQuery(ctx context.Context, f *feed.Feed, req HistoryQueryRequest) (resp HistoryQueryResponse, err error) {
	// A historical query replays a live stream's ticks, where CMC is the
	// canonical semantics; the CuTS family stays opt-in.
	req.Algo = cmp.Or(req.Algo, AlgoCMC)
	t0 := time.Now()
	reqSpan := trace.FromContext(ctx)
	algo := algoInvalid
	defer func() {
		s.cfg.metrics.observeQuery(algo, "none", err, time.Since(t0), reqSpan.TraceID())
	}()
	pl, err := plan(QueryRequest{QuerySpec: req}, s.cfg.MaxWorkersPerQuery)
	if err != nil {
		return HistoryQueryResponse{}, err
	}
	algo = pl.res.Algo
	// timeout_ms and the server's cap, whichever is tighter — reading the
	// window, queueing for a slot and mining all count, as for /v1/query.
	ctx, cancel := s.q.requestCtx(ctx, pl.req)
	defer cancel()
	ctx, qsp := s.q.startQuery(ctx, pl, reqSpan)
	defer qsp.End() // idempotent; mine ends it before collecting the profile
	fold := newWindowFold()
	defer fold.release() // after mine: the database's trajectories are the fold's columns
	if err := f.ReadWindow(ctx, pl.res.From, pl.res.To, fold); err != nil {
		return HistoryQueryResponse{}, err
	}
	resp = HistoryQueryResponse{
		Convoys: []ConvoyJSON{},
		Params:  pl.res.Spec.Params,
		Algo:    pl.res.Algo,
		From:    req.From,
		To:      req.To,
		Ticks:   fold.ticks,
	}
	db, err := fold.db()
	if err != nil {
		return HistoryQueryResponse{}, err
	}
	if db.Len() == 0 {
		return resp, nil // no positions in the window: no convoys
	}
	resp.Objects = db.Len()
	release, err := s.q.acquire(ctx)
	if err != nil {
		return HistoryQueryResponse{}, err
	}
	defer release()
	if resp.Convoys, resp.Stats, resp.Explain, err = s.q.mine(ctx, qsp, pl, db, wire.DBLabels(db)); err != nil {
		return HistoryQueryResponse{}, err
	}
	resp.ElapsedMS = float64(time.Since(t0).Microseconds()) / 1000
	return resp, nil
}
