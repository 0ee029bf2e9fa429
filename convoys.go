// Package convoys discovers convoys — groups of objects that travel
// together for some minimum time — in trajectory databases. It is a
// from-scratch Go implementation of
//
//	Jeung, Yiu, Zhou, Jensen, Shen:
//	"Discovery of Convoys in Trajectory Databases", VLDB 2008.
//
// A convoy query takes three parameters: a group size m, a lifetime k (in
// time points) and a distance e. It returns every maximal group of at least
// m objects that are density-connected (DBSCAN sense) with respect to e at
// each of at least k consecutive time points — unlike disc-based flocks,
// density connection captures groups of arbitrary shape and extent.
//
// # Quick start
//
// Every discovery starts at NewQuery: the parameters and the algorithm are
// options, and Run answers under a context.
//
//	db := convoys.NewDB()
//	for _, object := range objects {
//	    tr, err := convoys.NewTrajectory(object.Name, object.Samples)
//	    // handle err
//	    db.Add(tr)
//	}
//	q := convoys.NewQuery(convoys.M(3), convoys.K(180), convoys.Eps(8))
//	result, err := q.Run(ctx, db)
//	for _, c := range result {
//	    fmt.Println(c) // ⟨o1,o4,o9,[120,431]⟩
//	}
//
// The default algorithm is CuTS* — the paper's best (filter-refinement over
// DP*-simplified trajectories with CPA distance bounds) — with the paper's
// automatic δ/λ parameter guidelines. WithVariant picks CuTS or CuTS+,
// WithCMC the Coherent Moving Cluster baseline; all four return identical
// answers and differ only in speed.
//
// # Cancellation and streaming results
//
// Seq is the streaming form of Run: an iterator yielding convoys as the
// scan closes them, honoring ctx at tick, partition and candidate
// granularity (breaking out stops every worker at its next unit of work).
// Run is that stream collected into the canonical batch answer — one
// schedule serves both:
//
//	q := convoys.NewQuery(convoys.M(3), convoys.K(180), convoys.Eps(8),
//	    convoys.WithWorkers(convoys.DefaultWorkers()))
//	for c, err := range q.Seq(ctx, db) {
//	    if err != nil { ... } // ctx cancellation arrives here
//	    fmt.Println(c)        // delivered the moment it is final
//	}
//
// A live position feed has no database to query: push one snapshot per
// tick into a Streamer instead, which hands back each convoy as it closes.
// ReplayTicks drives a Streamer from a stored database.
//
// # Pluggable clustering backends
//
// The per-tick density-connection stage is a Clusterer. The default is the
// paper's grid-indexed DBSCAN over positions; a ProximityLog's Clusterer
// instead takes connected components of a weighted proximity graph, so
// convoys can be discovered in coordinate-free contact logs (Bluetooth
// sightings, radio contacts) where no positions exist at all:
//
//	log, err := convoys.ReadProximityLog(f) // a,b,t,w rows
//	db, err := log.DB()                     // stand-in database
//	q := convoys.NewQuery(convoys.M(3), convoys.K(180), convoys.Eps(1),
//	    convoys.WithCMC(), convoys.WithClusterer(log.Clusterer()))
//	result, err := q.Run(ctx, db)
//
// Custom backends plug in the same way; only CMC accepts them — the CuTS
// filter bounds are DBSCAN-specific theorems. Backends are a library
// option: the convoyd daemon and the CLIs cluster positions only.
//
// # Serving
//
// The convoyd daemon — live feeds with standing convoy queries, a cached
// batch query engine, a write-ahead log, tracing and metrics behind an
// HTTP/JSON API — is built on this library but is not part of it: embed it
// by importing internal/serve in-tree, as cmd/convoyd and serve's
// Example_fleetserver do.
package convoys

import (
	"io"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/proxgraph"
	"repro/internal/tsio"
)

// Core model types.
type (
	// DB is a trajectory database with dense object IDs.
	DB = model.DB
	// Trajectory is one object's time-stamped movement history.
	Trajectory = model.Trajectory
	// Sample is a single timestamped location.
	Sample = model.Sample
	// Tick is a discrete time point.
	Tick = model.Tick
	// ObjectID identifies an object within a DB.
	ObjectID = model.ObjectID
	// Point is a planar location.
	Point = geom.Point
)

// Query and result types.
type (
	// Params are the convoy query parameters (m, k, e).
	Params = core.Params
	// Convoy is one answer: a group of objects and its time interval.
	Convoy = core.Convoy
	// Result is a canonical (maximal, sorted) set of convoys.
	Result = core.Result
	// Variant names a CuTS family member.
	Variant = core.Variant
	// Stats reports phase timings and filter statistics of a run.
	Stats = core.Stats
)

// CuTS variants.
const (
	// CuTSVariant is the base filter-refinement algorithm (DP + Lemma 1).
	CuTSVariant = core.VariantCuTS
	// CuTSPlusVariant accelerates simplification (DP+ + Lemma 1).
	CuTSPlusVariant = core.VariantCuTSPlus
	// CuTSStarVariant tightens the filter bounds (DP* + Lemma 3); the
	// paper's overall winner and this package's default.
	CuTSStarVariant = core.VariantCuTSStar
)

// NewDB returns an empty trajectory database.
func NewDB() *DB { return model.NewDB() }

// NewTrajectory validates samples (non-empty, finite coordinates, strictly
// increasing time) and builds a trajectory; add it to a DB to assign its
// ObjectID.
func NewTrajectory(label string, samples []Sample) (*Trajectory, error) {
	return model.NewTrajectory(label, samples)
}

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// S constructs a Sample at tick t.
func S(t Tick, x, y float64) Sample { return Sample{T: t, P: geom.Pt(x, y)} }

// Context-first query API.
type (
	// Query is one convoy discovery question — parameters, algorithm,
	// worker count, optional result limit — built with NewQuery and
	// executed with Seq (streaming) or Run (the collected stream). Both
	// honor their context at tick/partition/candidate granularity, so
	// cancelling a query aborts its clustering pipeline within about one
	// unit of work per worker.
	Query = core.Query
	// QueryOption configures a Query under construction.
	QueryOption = core.Option
)

// NewQuery builds a convoy query from options:
//
//	q := convoys.NewQuery(convoys.M(3), convoys.K(180), convoys.Eps(8),
//	    convoys.WithVariant(convoys.CuTSStarVariant),
//	    convoys.WithWorkers(convoys.DefaultWorkers()))
//	result, err := q.Run(ctx, db)
//
// The m, k and e parameters are mandatory (Run/Seq fail validation
// otherwise); the algorithm defaults to CuTS* with the automatic δ/λ
// guidelines, running serially.
func NewQuery(opts ...QueryOption) *Query { return core.NewQuery(opts...) }

// M sets the minimum number of objects in a convoy.
func M(m int) QueryOption { return core.M(m) }

// K sets the minimum convoy lifetime in consecutive time points.
func K(k int64) QueryOption { return core.K(k) }

// Eps sets the density-connection distance threshold e.
func Eps(e float64) QueryOption { return core.Eps(e) }

// WithVariant selects a CuTS family member (default CuTS*).
func WithVariant(v Variant) QueryOption { return core.WithVariant(v) }

// WithCMC selects the Coherent Moving Cluster baseline (Algorithm 1:
// snapshot DBSCAN at every tick, no filter step) instead of the CuTS
// filter-refinement family.
func WithCMC() QueryOption { return core.WithCMC() }

// WithWorkers sets the goroutines per pipeline stage (≤ 1 = serial); the
// answer set is identical for every worker count, and Run, Seq and limited
// runs are scheduled alike (contiguous chunks of ticks per worker).
func WithWorkers(n int) QueryOption { return core.WithWorkers(n) }

// WithLimit stops discovery after n convoys have been delivered,
// abandoning the clustering work beyond the few chunks already in flight
// (the bound documented on Query.Seq).
func WithLimit(n int) QueryOption { return core.WithLimit(n) }

// WithStats directs run statistics (phase timings, the automatic δ and λ,
// candidate counts, clustering passes) into st, written once per Run/Seq
// completion.
func WithStats(st *Stats) QueryOption { return core.WithStats(st) }

// WithClusterer swaps the per-tick clustering backend of a CMC query (nil
// restores the default DBSCAN backend). The CuTS family's filter bounds are
// DBSCAN-specific theorems, so a non-default backend requires WithCMC;
// Run/Seq fail otherwise. ProximityLog.Clusterer is the bundled
// graph-connectivity backend.
func WithClusterer(c Clusterer) QueryOption { return core.WithClusterer(c) }

// DefaultWorkers returns the natural per-stage worker count for this
// machine (GOMAXPROCS), for use with WithWorkers.
func DefaultWorkers() int { return core.DefaultWorkers() }

// Canonicalize deduplicates convoys and removes non-maximal answers.
func Canonicalize(convoys []Convoy) Result { return core.Canonicalize(convoys) }

// Streamer discovers convoys incrementally over a live position feed: push
// per-tick snapshots with Advance, receive convoys as they close, flush the
// rest with Close. Advance refuses non-finite positions, duplicate object
// IDs and ticks that do not increase. Replaying a database through a
// Streamer (ReplayTicks) and canonicalizing the emissions equals the batch
// CMC answer.
type Streamer = core.Streamer

// NewStreamer returns an online convoy discoverer for the given parameters.
func NewStreamer(p Params) (*Streamer, error) { return core.NewStreamer(p) }

// ReplayTicks walks a stored database tick by tick, calling fn with every
// interpolated snapshot — the bridge from batch storage to a Streamer. ids
// and pts are reused from tick to tick: read-only, and valid only until fn
// returns.
func ReplayTicks(db *DB, fn func(t Tick, ids []ObjectID, pts []Point) error) error {
	return core.ReplayTicks(db, fn)
}

// Pluggable per-tick clustering backends (the density-connection stage of
// convoy discovery, swappable under CMC).
type (
	// Clusterer is a per-tick clustering backend: it partitions one tick's
	// snapshot into candidate groups of at least ClusterKey.M members.
	Clusterer = core.Clusterer
	// ClusterKey is the clustering configuration (e, m) a Clusterer is
	// asked to cluster a snapshot at.
	ClusterKey = core.ClusterKey
	// TickSnapshot is one tick's input to a Clusterer: the tick and the
	// object IDs alive at it with their positions.
	TickSnapshot = core.TickSnapshot
	// ProximityLog is a coordinate-free contact log: timestamped weighted
	// edges between labeled objects (read from "a,b,t,w" CSV). Its
	// Clusterer method yields a graph-connectivity backend over the log —
	// clusters are connected components of the edges at the snapshot's
	// tick with weight ≥ e — and DB synthesizes the stand-in trajectory
	// database that carries the log's objects through a Query.
	ProximityLog = proxgraph.Log
)

// NewProximityLog returns an empty contact log; fill it with Add.
func NewProximityLog() *ProximityLog { return proxgraph.NewLog() }

// ReadProximityLog parses a contact log from "a,b,t,w" CSV.
func ReadProximityLog(r io.Reader) (*ProximityLog, error) { return proxgraph.ReadLog(r) }

// ProximityLogFromDB derives a contact log from a trajectory database: one
// weight-1 edge per object pair within distance r at each tick. At m=2 the
// graph backend over this log answers exactly like DBSCAN over the
// positions; at larger m the two notions of density diverge.
func ProximityLogFromDB(db *DB, r float64) (*ProximityLog, error) {
	return proxgraph.FromDB(db, r)
}

// Trajectory database formats: "obj,t,x,y" CSV with a header, and the
// compact exact-precision binary CTB for large databases.

// ReadCSV parses a trajectory database from CSV.
func ReadCSV(r io.Reader) (*DB, error) { return tsio.ReadCSV(r) }

// WriteCSV writes a trajectory database as CSV.
func WriteCSV(w io.Writer, db *DB) error { return tsio.WriteCSV(w, db) }

// ReadBinary parses a CTB stream into a database.
func ReadBinary(r io.Reader) (*DB, error) { return tsio.ReadBinary(r) }

// WriteBinary writes a database in CTB format.
func WriteBinary(w io.Writer, db *DB) error { return tsio.WriteBinary(w, db) }

// Profile is a synthetic dataset profile with its query parameters. The
// paper's four datasets are proprietary; these seeded profiles match their
// Table 3 shape (see the internal/datagen package comment and each
// profile's doc comment).
type Profile = datagen.Profile

// TruckProfile emulates the Athens trucks dataset at the given time scale.
func TruckProfile(scale float64, seed int64) Profile { return datagen.Truck(scale, seed) }

// CattleProfile emulates the CSIRO cattle dataset at the given time scale.
func CattleProfile(scale float64, seed int64) Profile { return datagen.Cattle(scale, seed) }

// CarProfile emulates the Copenhagen cars dataset at the given time scale.
func CarProfile(scale float64, seed int64) Profile { return datagen.Car(scale, seed) }

// TaxiProfile emulates the Beijing taxis dataset at the given time scale.
func TaxiProfile(scale float64, seed int64) Profile { return datagen.Taxi(scale, seed) }

// ContactProfile is a synthetic close-encounter world for the
// proximity-graph backend: thresholding pairwise distance at the profile's
// Eps (ProximityLogFromDB) turns each tick into a contact graph.
func ContactProfile(scale float64, seed int64) Profile { return datagen.Contact(scale, seed) }
