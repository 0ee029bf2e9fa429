package core

import (
	"repro/internal/geom"
	"repro/internal/increment"
	"repro/internal/model"
)

// The per-tick clustering stage is pluggable: the convoy definition only
// needs *some* notion of density-connected groups per time point — the
// paper instantiates it with Euclidean DBSCAN, but the CMC chaining is
// agnostic to where the clusters come from. A Clusterer computes one
// tick's clusters from a snapshot; the built-in DBSCANClusterer reproduces
// the paper exactly, and internal/proxgraph clusters coordinate-free
// proximity logs it holds itself. The CuTS filter step is NOT pluggable —
// its pruning bounds are theorems about Euclidean DBSCAN over polylines —
// so custom clusterers pair with the CMC algorithm. It is a library
// option: the daemon and the CLIs cluster positions with DBSCAN only.

// DefaultBackend is the Name of the built-in grid-DBSCAN backend.
const DefaultBackend = "dbscan"

// TickSnapshot is everything one tick exposes to a Clusterer: the tick and
// the alive object IDs with their positions (parallel slices). A backend
// that clusters something other than positions looks its input up by T.
type TickSnapshot struct {
	T   model.Tick
	IDs []model.ObjectID
	Pts []geom.Point
}

// Clusterer computes the per-tick density-connected groups the convoy
// pipeline chains across time.
//
// Contract: Clusters returns the tick's clusters at the key — every
// cluster has ≥ key.M members, member lists are ascending object IDs, and
// the output is deterministic in the snapshot. Clusters may overlap (the
// DBSCAN backend's maximal sets share border points); callers never
// mutate the returned slices. Name identifies the backend. Implementations
// must be safe for concurrent Clusters calls (the parallel CMC pipeline
// clusters many ticks at once). The snapshot's slices are lent, not given:
// a database scan hands out its sweep cursor's buffers (model.Cursor) and
// overwrites them for the next tick, so an implementation neither modifies
// nor keeps them, and returns freshly built member lists rather than
// sub-slices of snap.IDs.
//
// Clusterers are stateless across ticks by design — Clusters(key, snap)
// is a pure function of its arguments. Cross-tick state lives one layer
// up: a ClusterSource over the default backend keeps one incremental
// engine (internal/increment) across its ticks, which changes how fast an
// answer comes, never what it is. A custom backend therefore never needs
// cross-tick state for correctness and never gets it.
type Clusterer interface {
	Name() string
	Clusters(key ClusterKey, snap TickSnapshot) [][]model.ObjectID
}

// DBSCANClusterer is the paper's per-tick clustering: maximal
// density-connected sets (snapshot DBSCAN) over the snapshot positions.
// The zero value is ready to use.
type DBSCANClusterer struct{}

// Name returns DefaultBackend.
func (DBSCANClusterer) Name() string { return DefaultBackend }

// Clusters returns the maximal density-connected sets of the snapshot
// positions at (key.Eps, key.M): one full pass of a fresh engine, the
// cluster list ordered by ascending member list.
func (DBSCANClusterer) Clusters(key ClusterKey, snap TickSnapshot) [][]model.ObjectID {
	out, _ := increment.New(key.Eps, key.M, 0).Tick(snap.IDs, snap.Pts)
	return out
}

// isDefaultBackend is the one "is this the built-in DBSCAN backend?"
// decision, made by type: a custom Clusterer that names itself
// DefaultBackend is still custom, so it still requires CMC and is still
// the one asked for clusters.
func isDefaultBackend(c Clusterer) bool {
	_, ok := c.(DBSCANClusterer)
	return ok
}

// DefaultClusterer is the built-in DBSCAN backend, used wherever no
// WithClusterer option (or explicit source clusterer) says otherwise.
var DefaultClusterer Clusterer = DBSCANClusterer{}
