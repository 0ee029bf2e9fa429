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
//	db := convoys.NewDB()
//	for _, object := range objects {
//	    tr, err := convoys.NewTrajectory(object.Name, object.Samples)
//	    // handle err
//	    db.Add(tr)
//	}
//	result, err := convoys.Discover(db, convoys.Params{M: 3, K: 180, Eps: 8})
//	for _, c := range result {
//	    fmt.Println(c) // ⟨o1,o4,o9,[120,431]⟩
//	}
//
// Discover uses CuTS* — the paper's best algorithm (filter-refinement over
// DP*-simplified trajectories with CPA distance bounds) — with the paper's
// automatic δ/λ parameter guidelines. All four algorithms of the paper
// (CMC, CuTS, CuTS+, CuTS*) are exposed and return identical answers; they
// differ only in speed.
//
// # Cancellation and streaming results
//
// NewQuery is the context-first form of the same query — the one to reach
// for in servers and pipelines. A Query is built from functional options
// and executed with Seq (an iterator yielding convoys as the scan closes
// them, honoring ctx at tick, partition and candidate granularity; breaking
// out stops every worker at its next unit of work) or Run (that stream
// collected into the canonical batch answer — one schedule serves both):
//
//	q := convoys.NewQuery(convoys.M(3), convoys.K(180), convoys.Eps(8),
//	    convoys.WithWorkers(convoys.DefaultWorkers()))
//	for c, err := range q.Seq(ctx, db) {
//	    if err != nil { ... } // ctx cancellation arrives here
//	    fmt.Println(c)        // delivered the moment it is final
//	}
//
// Query is the library: every discovery starts at NewQuery, and Discover
// and CMC are its two uncancellable one-line shorthands.
//
// # Pluggable clustering backends
//
// The per-tick density-connection stage is a Clusterer. The default is the
// paper's grid-indexed DBSCAN over positions; GraphClusterer instead takes
// connected components of a weighted proximity graph, so convoys can be
// discovered in coordinate-free contact logs (Bluetooth sightings, radio
// contacts) where no positions exist at all:
//
//	log, err := convoys.LoadProximityLog("contacts.csv") // a,b,t,w rows
//	db, err := log.DB()                                  // stand-in database
//	q := convoys.NewQuery(convoys.M(3), convoys.K(180), convoys.Eps(1),
//	    convoys.WithCMC(), convoys.WithClusterer(log.Clusterer()))
//	result, err := q.Run(ctx, db)
//
// Custom backends plug in the same way (WithClusterer, or
// NewClusterSourceWith for the streaming engine); only CMC accepts them —
// the CuTS filter bounds are DBSCAN-specific theorems. Backends are a
// library option: the convoyd daemon and the CLIs cluster positions only.
//
// # Serving
//
// The convoyd daemon — live feeds with standing convoy queries, a cached
// batch query engine, a write-ahead log, tracing and metrics behind an
// HTTP/JSON API — is built on this library but is not part of it: embed it
// by importing internal/serve in-tree, as cmd/convoyd and
// examples/fleetserver do.
package convoys

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/proxgraph"
	"repro/internal/simplify"
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
	// DBStats summarises a database (Table 3 quantities).
	DBStats = model.Stats
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
	// Stats reports phase timings and filter statistics of a CuTS run.
	Stats = core.Stats
	// Candidate is a filter-step convoy candidate.
	Candidate = core.Candidate
	// AccuracyReport compares an answer set against a reference.
	AccuracyReport = core.AccuracyReport
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

// Simplification methods (Section 2.2, 5.1, 6).
type SimplifyMethod = simplify.Method

const (
	// DP is the classic Douglas–Peucker algorithm.
	DP = simplify.DP
	// DPPlus splits at the tolerance-exceeding point nearest the middle.
	DPPlus = simplify.DPPlus
	// DPStar measures deviation synchronously in time (Meratnia/de By).
	DPStar = simplify.DPStar
)

// SimplifiedTrajectory is the result of trajectory simplification,
// carrying per-segment actual tolerances (Definition 4).
type SimplifiedTrajectory = simplify.Trajectory

// NewDB returns an empty trajectory database.
func NewDB() *DB { return model.NewDB() }

// NewTrajectory validates samples (strictly increasing time, non-empty) and
// builds a trajectory; add it to a DB to assign its ObjectID.
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

// WithParams sets all three convoy query parameters at once.
func WithParams(p Params) QueryOption { return core.WithParams(p) }

// WithVariant selects a CuTS family member (default CuTS*).
func WithVariant(v Variant) QueryOption { return core.WithVariant(v) }

// WithCMC selects the Coherent Moving Cluster baseline instead of the
// CuTS filter-refinement family.
func WithCMC() QueryOption { return core.WithCMC() }

// WithDelta overrides the automatic simplification-tolerance guideline.
func WithDelta(delta float64) QueryOption { return core.WithDelta(delta) }

// WithLambda overrides the automatic time-partition-length guideline.
func WithLambda(lambda int64) QueryOption { return core.WithLambda(lambda) }

// WithWorkers sets the goroutines per pipeline stage (≤ 1 = serial); the
// answer set is identical for every worker count, and Run, Seq and limited
// runs are scheduled alike (contiguous chunks of ticks per worker).
func WithWorkers(n int) QueryOption { return core.WithWorkers(n) }

// WithLimit stops discovery after n convoys have been delivered,
// abandoning the clustering work beyond the few chunks already in flight
// (the bound documented on Query.Seq).
func WithLimit(n int) QueryOption { return core.WithLimit(n) }

// WithPartitions splits the database's time range into n overlapping
// windows (overlap k−1 ticks), mines each independently on the query's
// worker pool and merges the partial answers — the same partition/merge a
// convoyd coordinator runs across shard processes, here in one process.
// The answer set is identical to the single-pass run for every n; n ≤ 1
// disables partitioning.
func WithPartitions(n int) QueryOption { return core.WithPartitions(n) }

// WithStats directs run statistics (phase timings, candidate counts,
// clustering passes) into st, written once per Run/Seq completion.
func WithStats(st *Stats) QueryOption { return core.WithStats(st) }

// WithIncremental tunes the incremental clustering fast path of the CMC
// scan and of the CuTS family's refinement windows. A threshold in (0, 1]
// re-clusters only the neighborhoods disturbed since the previous tick
// whenever the churned fraction of objects stays under it; threshold ≤ 0
// disables the fast path entirely. The default (option absent) is
// DefaultChurnThreshold on the default DBSCAN backend. This option is the
// one switch: no flag or environment variable overrides it. Answers are
// identical either way — the option trades memory (carried per-tick state)
// for per-tick clustering time.
func WithIncremental(threshold float64) QueryOption { return core.WithIncremental(threshold) }

// DefaultChurnThreshold is the churn fraction above which an incremental
// clustering pass falls back to a from-scratch one.
const DefaultChurnThreshold = core.DefaultChurnThreshold

// WithClusterer swaps the per-tick clustering backend of a CMC query (nil
// restores the default DBSCAN backend). The CuTS family's filter bounds are
// DBSCAN-specific theorems, so a non-default backend requires WithCMC;
// Run/Seq fail otherwise. See GraphClusterer for the bundled
// graph-connectivity backend.
func WithClusterer(c Clusterer) QueryOption { return core.WithClusterer(c) }

// Discover answers the convoy query with the paper's best algorithm
// (CuTS*) using the automatic δ/λ guidelines of Section 7.4. It is the
// uncancellable one-liner; use NewQuery for contexts, streaming and
// limits.
func Discover(db *DB, p Params) (Result, error) {
	return core.NewQuery(core.WithParams(p)).Run(context.Background(), db)
}

// CMC answers the convoy query with the Coherent Moving Cluster baseline
// (Algorithm 1): snapshot DBSCAN at every tick, no filter step. Slower but
// useful as a reference; serial and uncancellable — use
// NewQuery(WithParams(p), WithCMC(), WithWorkers(n)) for a worker pool,
// contexts and streaming.
func CMC(db *DB, p Params) (Result, error) {
	return core.NewQuery(core.WithParams(p), core.WithCMC()).Run(context.Background(), db)
}

// DefaultWorkers returns the natural per-stage worker count for this
// machine (GOMAXPROCS), for use with WithWorkers.
func DefaultWorkers() int { return core.DefaultWorkers() }

// Streamer discovers convoys incrementally over a live position feed: push
// per-tick snapshots with Advance, receive convoys as they close, flush the
// rest with Close. Replaying a database through a Streamer and
// canonicalizing the emissions equals the batch CMC answer. A Streamer is
// the 1-monitor special case of the ClusterSource/Monitor streaming engine.
type Streamer = core.Streamer

// NewStreamer returns an online convoy discoverer for the given parameters.
func NewStreamer(p Params) (*Streamer, error) { return core.NewStreamer(p) }

// Multi-monitor streaming engine: many standing convoy queries over one
// position feed, sharing clustering work per tick.
type (
	// Monitor maintains one standing convoy query over per-tick cluster
	// lists — the chaining stage of the streaming engine. Feed N monitors
	// sharing a ClusterKey from one ClusterSource and each tick costs one
	// DBSCAN pass, not N.
	Monitor = core.Monitor
	// ClusterKey is the clustering configuration (e, m) that determines
	// snapshot clusters; monitors sharing a key can share a source.
	ClusterKey = core.ClusterKey
	// ClusterSource computes per-tick snapshot clusters at one ClusterKey
	// and counts its clustering passes.
	ClusterSource = core.ClusterSource
)

// Pluggable per-tick clustering backends (the density-connection stage of
// convoy discovery, swappable under CMC and the streaming engine).
type (
	// Clusterer is a per-tick clustering backend: it partitions one tick's
	// snapshot into candidate groups of at least ClusterKey.M members.
	// DefaultClusterer is the paper's grid-indexed DBSCAN over positions;
	// GraphClusterer clusters a contact log's edges at the snapshot's tick
	// instead.
	Clusterer = core.Clusterer
	// TickSnapshot is one tick's input to a Clusterer: the tick and the
	// object IDs alive at it with their positions.
	TickSnapshot = core.TickSnapshot
	// ProxEdge is one weighted proximity observation between two objects
	// of a ProximityLog (ProximityLog.EdgesAt).
	ProxEdge = proxgraph.Edge
	// ProximityLog is a coordinate-free contact log: timestamped weighted
	// edges between labeled objects (read from "a,b,t,w" CSV). Its
	// Clusterer method yields a graph-connectivity backend over the log,
	// and DB synthesizes the stand-in trajectory database that carries the
	// log's objects through a Query.
	ProximityLog = proxgraph.Log
)

// DefaultClusterer returns the default backend: the paper's grid-indexed
// snapshot DBSCAN over object positions.
func DefaultClusterer() Clusterer { return core.DefaultClusterer }

// GraphClusterer returns the graph-connectivity backend: clusters are
// connected components of the log's proximity edges at the snapshot's tick
// with weight ≥ e, ignoring positions entirely (pair it with log.DB(), the
// log's stand-in database). A nil log has no edges, so no clusters.
func GraphClusterer(log *ProximityLog) Clusterer { return proxgraph.Clusterer{Log: log} }

// NewProximityLog returns an empty contact log; fill it with Add.
func NewProximityLog() *ProximityLog { return proxgraph.NewLog() }

// ReadProximityLog parses a contact log from "a,b,t,w" CSV.
func ReadProximityLog(r io.Reader) (*ProximityLog, error) { return proxgraph.ReadLog(r) }

// LoadProximityLog reads a contact log from a CSV file.
func LoadProximityLog(path string) (*ProximityLog, error) { return proxgraph.LoadLog(path) }

// ProximityLogFromDB derives a contact log from a trajectory database: one
// weight-1 edge per object pair within distance r at each tick. At m=2 the
// graph backend over this log answers exactly like DBSCAN over the
// positions; at larger m the two notions of density diverge.
func ProximityLogFromDB(db *DB, r float64) (*ProximityLog, error) {
	return proxgraph.FromDB(db, r)
}

// NewMonitor returns a standing convoy query consuming per-tick cluster
// lists (see Monitor.AdvanceClusters); pair it with a ClusterSource at
// Params.ClusterKey(). The Monitor keeps the lists it is given, so a caller
// never writes a list once it has pushed it — a reused buffer would corrupt
// the open candidates.
func NewMonitor(p Params) (*Monitor, error) { return core.NewMonitor(p) }

// NewClusterSource returns a per-tick snapshot DBSCAN stage for the key,
// shareable by every Monitor whose parameters have that ClusterKey.
func NewClusterSource(key ClusterKey) (*ClusterSource, error) { return core.NewClusterSource(key) }

// NewClusterSourceWith returns a clustering stage running the given
// backend (nil = default DBSCAN). The source owns its backend: monitors
// fed from one source share its clusters, so share a source only among
// monitors that mean the same backend.
func NewClusterSourceWith(key ClusterKey, c Clusterer) (*ClusterSource, error) {
	return core.NewClusterSourceWith(key, c)
}

// ReplayTicks walks a stored database tick by tick, calling fn with every
// interpolated snapshot — the bridge from batch storage to the online
// interfaces (drive a Streamer, or a convoyd feed, from a file). ids and
// pts are reused from tick to tick: read-only, and valid only until fn
// returns.
func ReplayTicks(db *DB, fn func(t Tick, ids []ObjectID, pts []Point) error) error {
	return core.ReplayTicks(db, fn)
}

// MC2 runs the moving-cluster baseline with overlap threshold theta and
// returns its answers cast as convoys (no correctness guarantee — this is
// the method the paper shows to be unreliable in Figure 19).
func MC2(db *DB, p Params, theta float64) ([]Convoy, error) {
	return core.MC2(db, p, theta)
}

// CompareAnswers computes false-positive/negative percentages of an answer
// set against a reference result (the appendix's accuracy metrics).
func CompareAnswers(reported []Convoy, reference Result) AccuracyReport {
	return core.CompareAnswers(reported, reference)
}

// Simplify reduces a trajectory with the chosen method and tolerance,
// recording per-segment actual tolerances.
func Simplify(tr *Trajectory, delta float64, m SimplifyMethod) *SimplifiedTrajectory {
	return simplify.Simplify(tr, delta, m)
}

// ComputeDelta derives a simplification tolerance δ from the data
// (Section 7.4 guideline).
func ComputeDelta(db *DB, e float64) float64 { return core.ComputeDelta(db, e) }

// Canonicalize deduplicates convoys and removes non-maximal answers.
func Canonicalize(convoys []Convoy) Result { return core.Canonicalize(convoys) }

// CSV I/O (format: "obj,t,x,y" with header).

// ReadCSV parses a trajectory database from CSV.
func ReadCSV(r io.Reader) (*DB, error) { return tsio.ReadCSV(r) }

// WriteCSV writes a trajectory database as CSV.
func WriteCSV(w io.Writer, db *DB) error { return tsio.WriteCSV(w, db) }

// LoadCSV reads a database from a CSV file.
func LoadCSV(path string) (*DB, error) { return tsio.LoadCSV(path) }

// SaveCSV writes a database to a CSV file.
func SaveCSV(path string, db *DB) error { return tsio.SaveCSV(path, db) }

// Edge CSV I/O (format: "a,b,t,w" with header — the contact-log wire
// format behind ProximityLog).

// EdgeRecord is one contact observation of an edge CSV: objects a and b in
// proximity at tick t with weight w.
type EdgeRecord = tsio.EdgeRecord

// ReadEdgeCSV parses contact records from "a,b,t,w" CSV, preserving file
// order. ReadProximityLog both parses and indexes.
func ReadEdgeCSV(r io.Reader) ([]EdgeRecord, error) { return tsio.ReadEdgeCSV(r) }

// WriteEdgeCSV writes contact records as "a,b,t,w" CSV.
func WriteEdgeCSV(w io.Writer, edges []EdgeRecord) error { return tsio.WriteEdgeCSV(w, edges) }

// LoadEdgeCSV reads contact records from a CSV file.
func LoadEdgeCSV(path string) ([]EdgeRecord, error) { return tsio.LoadEdgeCSV(path) }

// SaveEdgeCSV writes contact records to a CSV file.
func SaveEdgeCSV(path string, edges []EdgeRecord) error { return tsio.SaveEdgeCSV(path, edges) }

// Binary I/O (compact exact-precision "CTB" format for large databases).

// ReadBinary parses a CTB stream into a database.
func ReadBinary(r io.Reader) (*DB, error) { return tsio.ReadBinary(r) }

// WriteBinary writes a database in CTB format.
func WriteBinary(w io.Writer, db *DB) error { return tsio.WriteBinary(w, db) }

// LoadBinary reads a database from a CTB file.
func LoadBinary(path string) (*DB, error) { return tsio.LoadBinary(path) }

// SaveBinary writes a database to a CTB file.
func SaveBinary(path string, db *DB) error { return tsio.SaveBinary(path, db) }

// Synthetic dataset generation (the paper's four datasets are proprietary;
// these seeded profiles match their Table 3 shape — see the
// internal/datagen package comment and each profile's doc comment).
type (
	// Profile is a synthetic dataset profile with its query parameters.
	Profile = datagen.Profile
	// Scenario is a custom synthetic world description.
	Scenario = datagen.Scenario
	// GroupSpec plants one co-traveling group in a Scenario.
	GroupSpec = datagen.GroupSpec
)

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
