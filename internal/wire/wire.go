// Package wire is the canonical JSON schema of the convoy query API: the
// one place the parameter vocabulary, validation rules and error envelope
// live. The HTTP server (internal/serve), the CLIs (convoyfind, convoyload)
// and the coordinator↔shard RPC (internal/dist) all speak these types, so a
// query means the same thing on every surface.
//
// It is also the one front-end between a request and a run: a QuerySpec —
// decoded from JSON, from a URL, or spelled by convoyfind's flags — becomes
// a Resolved through Normalize (every validation, every default), and a
// Resolved becomes core.Query options through Options. No surface
// validates, defaults or translates a query on its own; a new query
// decision is a field here.
//
// Every surface clusters positions with the paper's DBSCAN. Other
// per-tick clusterers (internal/proxgraph's contact logs) are a library
// option, core.WithClusterer; "clusterer" survives on the wire only as a
// legacy spelling of the default (CheckClusterer).
//
// Ticks travel as plain int64 and object identities as string labels —
// dense ObjectIDs are a per-database implementation detail that must not
// leak to clients.
package wire

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// ParamsJSON is the wire form of the convoy query parameters (m, k, e).
type ParamsJSON struct {
	M   int     `json:"m"`
	K   int64   `json:"k"`
	Eps float64 `json:"e"`
}

// Params converts to the core parameter struct.
func (p ParamsJSON) Params() core.Params { return core.Params{M: p.M, K: p.K, Eps: p.Eps} }

// ParamsToJSON converts core parameters to their wire form.
func ParamsToJSON(p core.Params) ParamsJSON { return ParamsJSON{M: p.M, K: p.K, Eps: p.Eps} }

// ConvoyJSON is the wire form of one convoy answer.
type ConvoyJSON struct {
	// Objects are the member labels, ascending in the underlying IDs.
	Objects []string `json:"objects"`
	// Start and End delimit the inclusive tick interval.
	Start model.Tick `json:"start"`
	End   model.Tick `json:"end"`
	// Lifetime is End−Start+1, precomputed for consumers.
	Lifetime int64 `json:"lifetime"`
}

// ConvoyToJSON renders a convoy with the given label lookup; an object the
// lookup does not name (nil lookup, or "") is called "o<ID>".
func ConvoyToJSON(c core.Convoy, label func(model.ObjectID) string) ConvoyJSON {
	out := ConvoyJSON{
		Objects:  make([]string, len(c.Objects)),
		Start:    c.Start,
		End:      c.End,
		Lifetime: c.Lifetime(),
	}
	for i, id := range c.Objects {
		name := ""
		if label != nil {
			name = label(id)
		}
		if name == "" {
			name = unlabeled(id)
		}
		out.Objects[i] = name
	}
	return out
}

// unlabeled is what an object without a label is called on the wire.
func unlabeled(id model.ObjectID) string { return fmt.Sprintf("o%d", id) }

// DBLabels is the one label lookup over a database: a trajectory's label,
// or "o<ID>" for an unlabeled one ("" only for an ID the database does not
// hold). When db is a time slice of the database the client named
// (core.SliceTime renumbers densely), orig is the slice's new → original ID
// table, and an unlabeled object keeps the name its original ID gives it,
// whatever the window.
func DBLabels(db *model.DB, orig ...model.ObjectID) func(model.ObjectID) string {
	return func(id model.ObjectID) string {
		if id < 0 || id >= db.Len() {
			return ""
		}
		if label := db.Traj(id).Label; label != "" {
			return label
		}
		if orig != nil {
			id = orig[id]
		}
		return unlabeled(id)
	}
}

// Position is one object's location in a tick batch.
type Position struct {
	ID string  `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

// TickBatch is the ingestion unit of POST /v1/feeds/{name}/ticks: the
// position of every tracked object at one tick.
type TickBatch struct {
	T         model.Tick `json:"t"`
	Positions []Position `json:"positions"`
}

// TicksRequest is the body of POST /v1/feeds/{name}/ticks. Either a single
// batch or a "ticks" array is accepted.
type TicksRequest struct {
	Ticks []TickBatch `json:"ticks"`
}

// StatsJSON is the wire form of the discovery run statistics.
type StatsJSON struct {
	Variant       string  `json:"variant"`
	Delta         float64 `json:"delta"`
	Lambda        int64   `json:"lambda"`
	Workers       int     `json:"workers"`
	NumPartitions int     `json:"partitions"` // the CuTS filter's λ-partitions (0 under CMC)
	NumCandidates int     `json:"candidates"`
	RefineUnits   float64 `json:"refine_units"`
	ClusterPasses int64   `json:"cluster_passes"`
	// ClusterPassesFull / Incremental split the pass count by clustering
	// mode; ObjectsReclustered meters the incremental path's object-level
	// work (see core.Stats).
	ClusterPassesFull        int64   `json:"cluster_passes_full"`
	ClusterPassesIncremental int64   `json:"cluster_passes_incremental"`
	ObjectsReclustered       int64   `json:"objects_reclustered"`
	SimplifyMS               float64 `json:"simplify_ms"`
	FilterMS                 float64 `json:"filter_ms"`
	RefineMS                 float64 `json:"refine_ms"`
	TotalMS                  float64 `json:"total_ms"`
}

// StatsToJSON converts run statistics to their wire form.
func StatsToJSON(st core.Stats) StatsJSON {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return StatsJSON{
		Variant:                  st.Variant.String(),
		Delta:                    st.Delta,
		Lambda:                   st.Lambda,
		Workers:                  st.Workers,
		NumPartitions:            st.NumPartitions,
		NumCandidates:            st.NumCandidates,
		RefineUnits:              st.RefineUnits,
		ClusterPasses:            st.ClusterPasses,
		ClusterPassesFull:        st.ClusterPassesFull,
		ClusterPassesIncremental: st.ClusterPassesIncremental,
		ObjectsReclustered:       st.ObjectsReclustered,
		SimplifyMS:               ms(st.SimplifyTime),
		FilterMS:                 ms(st.FilterTime),
		RefineMS:                 ms(st.RefineTime),
		TotalMS:                  ms(st.TotalTime()),
	}
}

// Algo names accepted by the query engine and convoyfind.
const (
	AlgoCMC      = "cmc"
	AlgoCuTS     = "cuts"
	AlgoCuTSPlus = "cuts+"
	AlgoCuTSStar = "cuts*"
)

// DefaultAlgo is the algorithm of a query that names none (Normalize
// resolves it): the one place every surface's default lives.
const DefaultAlgo = AlgoCuTSStar

// CheckClusterer checks the legacy "clusterer" field of a query, feed or
// monitor spec — or of a feed log written when the daemon had one. ""
// and "dbscan" (any case) name the one backend every surface runs and
// mean nothing; any other name is refused, pointing at the library:
// accepted, an a,b,t,w contact log would be read as a trajectory
// database, or a proxgraph feed would quietly cluster positions.
func CheckClusterer(name string) error {
	if name == "" || strings.EqualFold(name, core.DefaultBackend) {
		return nil
	}
	return fmt.Errorf("clusterer %q is a library option (convoys.WithClusterer, see ExampleWithClusterer); "+
		"the daemon and the CLIs cluster positions with %s only", name, core.DefaultBackend)
}
