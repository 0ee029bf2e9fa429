package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/simplify"
)

// The differential harness: every way this package answers a convoy query,
// on every scenario family, against internal/oracle — the naive
// transcription of the paper's definition. Its rows are
//
//	cmc, cuts, cuts+, cuts* × workers {1, 2} × incremental on/off
//	    × WithPartitions {0, 2} × Run / collected Seq,
//	plus a Streamer and two Monitors on one ClusterSource, fed tick by tick,
//
// and every row must answer exactly what the oracle answers. Each test
// below runs one slice of the rows, or one column of the work they report,
// on every scenario of every family; together they are the whole harness.
// Since every row equals the oracle, every row equals every other — CuTS
// equals CMC, parallel equals serial, incremental equals from scratch —
// which is what the tests' names say.

// scenario is one input of a family: a database, the query, and the CuTS
// rows' δ, λ (0: the automatic guidelines) and tolerance mode.
type scenario struct {
	family    string
	name      string
	want      Result // the oracle's answer
	db        *model.DB
	p         Params
	delta     float64
	lambda    int64
	tol       dbscan.ToleranceMode
	refused   bool // the domain lies beyond ±2^53: every CuTS row answers ErrTickDomain
	lowChurn  bool // the incremental engine must reuse work
	fullChurn bool // the incremental engine must fall back
}

// family is a seeded scenario generator with its inputs' digest pinned, so
// a change to a generator cannot silently change what the harness checks.
type family struct {
	name   string
	digest string
	build  func(t *testing.T) []scenario
}

var families = []family{
	{"random", "fbee3b34a1bcdd61", randomScenarios},
	{"eps-boundary", "d0eccb38e35f8dee", epsBoundaryScenarios},
	{"coincident", "d6c038c05d3185b2", coincidentScenarios},
	{"leave-rejoin", "f051b14e85baacda", leaveRejoinScenarios},
	{"bridging", "cd5bf4d92dadfd13", bridgingScenarios},
	{"crowd-allpairs", "f359906dc491f5b3", crowdScenarios},
	{"scan-chunk", "09f1fb352a15d0ab", chunkScenarios},
	{"merge-cases", "1c8a552370daee8a", mergeScenarios},
	{"tick-domain", "e1cea160fd48a049", tickDomainScenarios},
	churnFamily,
}

// churnFamily is also run on its own, one subtest per churn level.
var churnFamily = family{"churn", "f6bbfe23e63f6230", churnScenarios}

// harness runs check on every scenario of every family, with the oracle's
// answer.
func harness(t *testing.T, check func(t *testing.T, sc scenario, want Result)) {
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			convoys := 0
			for _, sc := range fam.scenarios(t) {
				convoys += len(sc.want)
				t.Run(sc.name, func(t *testing.T) { check(t, sc, sc.want) })
			}
			if convoys == 0 {
				t.Fatalf("no scenario of the family has a convoy; the comparison would be vacuous")
			}
		})
	}
}

// scenarios builds the family's inputs, checks them against the pinned
// digest and asks the oracle for their answers — once, for all the tests
// that run the family.
func (fam family) scenarios(t *testing.T) []scenario {
	if scs, ok := builtFamilies.Load(fam.name); ok {
		return scs.([]scenario)
	}
	scs := fam.build(t)
	h := sha256.New()
	for i, sc := range scs { // %v prints every float exactly
		scs[i].family, scs[i].want = fam.name, oracleAnswer(sc.db, sc.p)
		fmt.Fprint(h, sc.name, sc.p, sc.delta, sc.lambda, sc.tol)
		for _, tr := range sc.db.Trajectories() {
			fmt.Fprint(h, tr.Samples)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != fam.digest {
		t.Fatalf("%s family inputs changed: digest %s, pinned %s", fam.name, got, fam.digest)
	}
	builtFamilies.Store(fam.name, scs)
	return scs
}

var builtFamilies sync.Map // family name → []scenario

// oracleAnswer is the oracle's answer in this package's type.
func oracleAnswer(db *model.DB, p Params) Result {
	var out Result
	for _, c := range oracle.Convoys(db, p.M, p.K, p.Eps) {
		out = append(out, Convoy(c))
	}
	return out
}

// cutsVariants names queryAlgos' CuTS variants.
var cutsVariants = map[string]Variant{"cuts": VariantCuTS, "cuts+": VariantCuTSPlus, "cuts*": VariantCuTSStar}

// row is one batch row of the harness: queryAlgos[algo] at a worker count,
// with the incremental engine on (DefaultChurnThreshold) or off (-1), over
// a number of partitions, answered by Run or by a collected Seq.
type row struct {
	algo      int
	workers   int
	threshold float64
	parts     int
	seq       bool
}

func (r row) String() string {
	return fmt.Sprintf("%s workers=%d incremental=%v partitions=%d seq=%v",
		queryAlgos[r.algo].name, r.workers, r.threshold >= 0, r.parts, r.seq)
}

// runRow answers sc with one row — the scenario's δ, λ and tolerance, then
// extra — and checks what every row must: the oracle's answer, a collected
// Seq that yields each answer once, Stats.Workers echoing WithWorkers, and
// ClusterPasses = ClusterPassesFull + ClusterPassesIncremental with no
// incremental pass under WithIncremental(-1). ok is false when the row is
// a CuTS row refused with ErrTickDomain, as the scenario requires.
func runRow(t *testing.T, sc scenario, want Result, r row, extra ...Option) (Stats, bool) {
	t.Helper()
	key := rowKey{sc.family, sc.name, r}
	if len(extra) == 0 {
		if run, ok := rowRuns.Load(key); ok {
			return run.(checkedRun).s, run.(checkedRun).ok
		}
	}
	s, ok := checkRow(t, sc, want, r, extra...)
	if len(extra) == 0 {
		rowRuns.Store(key, checkedRun{s, ok})
	}
	return s, ok
}

// rowRuns holds every row runRow has checked without extra options, so the
// tests that read the same row's work share one run of it.
var rowRuns sync.Map // rowKey → checkedRun

type rowKey struct {
	family, scenario string
	r                row
}

type checkedRun struct {
	s  Stats
	ok bool
}

// checkRow runs and checks one row for runRow.
func checkRow(t *testing.T, sc scenario, want Result, r row, extra ...Option) (s Stats, ok bool) {
	t.Helper()
	ctx := context.Background()
	_, cuts := cutsVariants[queryAlgos[r.algo].name]
	opts := append([]Option{WithParams(sc.p), queryAlgos[r.algo].opt, WithDelta(sc.delta), WithLambda(sc.lambda), WithTolerance(sc.tol),
		WithWorkers(r.workers), WithIncremental(r.threshold), WithPartitions(r.parts), WithStats(&s)}, extra...)
	q := NewQuery(opts...)
	var got []Convoy
	var err error
	if r.seq {
		got, err = drainSeq(ctx, q, sc.db)
	} else {
		got, err = q.Run(ctx, sc.db)
	}
	switch {
	case sc.refused && cuts && !errors.Is(err, ErrTickDomain):
		t.Fatalf("%v: err = %v, want ErrTickDomain", r, err)
	case sc.refused && cuts:
		return s, false
	case err != nil:
		t.Fatalf("%v: %v", r, err)
	case len(got) != len(want) || !Canonicalize(got).Equal(want):
		t.Fatalf("%v: %d answers ≠ oracle\n%s", r, len(got), answerDiff(Canonicalize(got), want))
	}
	if s.Workers != r.workers {
		t.Errorf("%v: Stats.Workers = %d", r, s.Workers)
	}
	if s.ClusterPasses != s.ClusterPassesFull+s.ClusterPassesIncremental || r.threshold < 0 && s.ClusterPassesIncremental != 0 {
		t.Errorf("%v: %d full + %d incremental passes ≠ %d, or incremental where none can be", r,
			s.ClusterPassesFull, s.ClusterPassesIncremental, s.ClusterPasses)
	}
	return s, true
}

// sweep runs queryAlgos[algo] at workers {1, 2} × incremental {on, off};
// st[w][i] is the run at the w-th worker count, i-th threshold.
func sweep(t *testing.T, sc scenario, want Result, algo, parts int, seq bool) (st [2][2]Stats, ok bool) {
	t.Helper()
	for wi, workers := range []int{1, 2} {
		for ii, threshold := range []float64{DefaultChurnThreshold, -1} {
			if st[wi][ii], ok = runRow(t, sc, want, row{algo, workers, threshold, parts, seq}); !ok {
				return st, false
			}
		}
	}
	return st, true
}

// algosOf lists the indices of the queryAlgos a test runs: all of them, or
// only CMC, or only the CuTS variants.
func algosOf(cmc, cuts bool) []int {
	var out []int
	for i, algo := range queryAlgos {
		if _, isCuTS := cutsVariants[algo.name]; isCuTS && cuts || !isCuTS && cmc {
			out = append(out, i)
		}
	}
	return out
}

// sameWork reports, for the engine on and off, whether the engine changed
// anything but the pass split: passes, candidates and refinement units.
func sameWork(t *testing.T, what string, on, off Stats) {
	t.Helper()
	if on.ClusterPasses != off.ClusterPasses || on.NumCandidates != off.NumCandidates || on.RefineUnits != off.RefineUnits {
		t.Errorf("%s: the engine changed the work: passes %d/%d, candidates %d/%d, refinement units %g/%g", what,
			on.ClusterPasses, off.ClusterPasses, on.NumCandidates, off.NumCandidates, on.RefineUnits, off.RefineUnits)
	}
}

// TestPropCMCMatchesBruteForce: runCMC, the serial reference this package's
// other tests compare against, answers what the definition does (the
// oracle itself equals the exhaustive subset enumeration in its own test).
func TestPropCMCMatchesBruteForce(t *testing.T) {
	harness(t, func(t *testing.T, sc scenario, want Result) {
		if got, err := runCMC(sc.db, sc.p); err != nil || !got.Equal(want) {
			t.Fatalf("serial CMC ≠ oracle (%v)\n%s", err, answerDiff(got, want))
		}
	})
}

// TestTickScanKernelDifferential: the CMC scan's batch rows — workers × the
// incremental engine on and off — equal the oracle, and the engine changes
// nothing but the pass split.
func TestTickScanKernelDifferential(t *testing.T) {
	harness(t, func(t *testing.T, sc scenario, want Result) {
		for _, algo := range algosOf(true, false) {
			st, _ := sweep(t, sc, want, algo, 0, false)
			for wi, s := range st {
				sameWork(t, fmt.Sprintf("cmc workers=%d", wi+1), s[0], s[1])
			}
		}
	})
}

// TestPropCuTSFamilyEqualsCMC: the three CuTS variants' batch rows, at the
// scenario's δ, λ and tolerance mode, equal the oracle.
func TestPropCuTSFamilyEqualsCMC(t *testing.T) {
	harness(t, func(t *testing.T, sc scenario, want Result) {
		for _, algo := range algosOf(false, true) {
			sweep(t, sc, want, algo, 0, false)
		}
	})
}

// TestPropSeqCollectEqualsRun: every algorithm's collected Seq, at every
// worker count, with the engine on and off, yields the oracle's answers,
// each once.
func TestPropSeqCollectEqualsRun(t *testing.T) {
	harness(t, func(t *testing.T, sc scenario, want Result) {
		for _, algo := range algosOf(true, true) {
			sweep(t, sc, want, algo, 0, true)
		}
	})
}

// TestPartitionedEquivalence: every algorithm over two time partitions, at
// every worker count, with the engine on and off, equals the oracle.
func TestPartitionedEquivalence(t *testing.T) {
	harness(t, func(t *testing.T, sc scenario, want Result) {
		for _, algo := range algosOf(true, true) {
			sweep(t, sc, want, algo, 2, false)
		}
	})
}

// TestPropParallelPipelineEqualsSerial: whole or partitioned, every
// algorithm hands refinement as many candidates at two workers as at one.
func TestPropParallelPipelineEqualsSerial(t *testing.T) {
	harness(t, func(t *testing.T, sc scenario, want Result) {
		for _, algo := range algosOf(true, true) {
			for _, parts := range []int{0, 2} {
				one, ok := runRow(t, sc, want, row{algo, 1, DefaultChurnThreshold, parts, false})
				two, _ := runRow(t, sc, want, row{algo, 2, DefaultChurnThreshold, parts, false})
				if ok && one.NumCandidates != two.NumCandidates {
					t.Errorf("%s partitions=%d: %d candidates at workers=1, %d at workers=2",
						queryAlgos[algo].name, parts, one.NumCandidates, two.NumCandidates)
				}
			}
		}
	})
}

// TestPropParallelRefineEqualsSerial: a CuTS variant's refinement does the
// same work at two workers as at one — the same clustering passes and
// refinement units.
func TestPropParallelRefineEqualsSerial(t *testing.T) {
	harness(t, func(t *testing.T, sc scenario, want Result) {
		for _, algo := range algosOf(false, true) {
			one, ok := runRow(t, sc, want, row{algo, 1, -1, 0, false})
			two, _ := runRow(t, sc, want, row{algo, 2, -1, 0, false})
			if ok && (one.ClusterPasses != two.ClusterPasses || one.RefineUnits != two.RefineUnits) {
				t.Errorf("%s: passes %d/%d, refinement units %g/%g at workers 1/2", queryAlgos[algo].name,
					one.ClusterPasses, two.ClusterPasses, one.RefineUnits, two.RefineUnits)
			}
		}
	})
}

// TestRefinementClustersThroughTheEngine: a CuTS run's refinement windows
// are clustered by the incremental engine — which changes nothing but the
// pass split — and at low churn it makes incremental passes.
func TestRefinementClustersThroughTheEngine(t *testing.T) {
	harness(t, func(t *testing.T, sc scenario, want Result) {
		for _, algo := range algosOf(false, true) {
			st, ok := sweep(t, sc, want, algo, 0, false)
			for wi := 0; ok && wi < 2; wi++ {
				on, off := st[wi][0], st[wi][1]
				what := fmt.Sprintf("%s workers=%d", queryAlgos[algo].name, wi+1)
				sameWork(t, what, on, off)
				if sc.lowChurn && on.NumCandidates > 0 && on.ClusterPassesIncremental == 0 {
					t.Errorf("%s: low churn but no incremental refinement pass (%d full)", what, on.ClusterPassesFull)
				}
			}
		}
	})
}

// TestCMCIncrementalMatchesFromScratch: on random walkers that are frozen,
// move 5 % of the time or all move every tick, the incremental CMC scan
// answers the oracle; at low churn it reclusters under half the objects
// the from-scratch scan does, and at 100 % churn every pass falls back to
// full.
func TestCMCIncrementalMatchesFromScratch(t *testing.T) {
	for _, sc := range churnFamily.scenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			want := sc.want
			if len(want) == 0 {
				t.Fatalf("no convoy; the comparison would be vacuous")
			}
			for _, algo := range algosOf(true, false) {
				st, _ := sweep(t, sc, want, algo, 0, false)
				for wi, s := range st {
					on, off := s[0], s[1]
					switch {
					case sc.lowChurn && on.ClusterPassesIncremental == 0:
						t.Errorf("workers=%d: low churn but no incremental pass (%d full)", wi+1, on.ClusterPassesFull)
					case sc.lowChurn && on.ObjectsReclustered >= off.ObjectsReclustered/2:
						t.Errorf("workers=%d: reclustered %d objects, from scratch %d — no reuse", wi+1, on.ObjectsReclustered, off.ObjectsReclustered)
					case sc.fullChurn && on.ClusterPassesIncremental != 0:
						t.Errorf("workers=%d: 100%% churn, yet %d incremental passes", wi+1, on.ClusterPassesIncremental)
					}
				}
			}
		})
	}
}

// TestPropQueryRunEqualsLegacyAPI: a serial CuTS run's Stats echo its
// variant and an explicit δ and λ, and the exported two-step pipeline —
// Refine over Filter's candidates at the δ and λ the run resolved —
// answers what the run does: the oracle's answer.
func TestPropQueryRunEqualsLegacyAPI(t *testing.T) {
	harness(t, func(t *testing.T, sc scenario, want Result) {
		for _, algo := range algosOf(false, true) {
			v := cutsVariants[queryAlgos[algo].name]
			s, ok := runRow(t, sc, want, row{algo, 1, DefaultChurnThreshold, 0, false})
			if !ok {
				continue
			}
			if s.Variant != v || sc.delta > 0 && s.Delta != sc.delta || sc.lambda > 0 && s.Lambda != sc.lambda {
				t.Errorf("%v: Stats (%v, δ=%g, λ=%d) do not echo the options (δ=%g, λ=%d)", v, s.Variant, s.Delta, s.Lambda, sc.delta, sc.lambda)
			}
			if got := Refine(sc.db, sc.p, filterCandidates(sc, v, s)); !got.Equal(want) {
				t.Errorf("%v: Refine(Filter) ≠ oracle\n%s", v, answerDiff(got, want))
			}
		}
	})
}

// TestPropCuTSGuidelinesAndGlobalTolEqualCMC: whatever δ, λ and tolerance
// mode the scenario asks for, the CuTS variants also equal the oracle under
// the automatic guidelines, and under global tolerances at the δ and λ the
// guidelines chose (Figure 14's switch changes no answer).
func TestPropCuTSGuidelinesAndGlobalTolEqualCMC(t *testing.T) {
	harness(t, func(t *testing.T, sc scenario, want Result) {
		for _, algo := range algosOf(false, true) {
			r := row{algo, 1, DefaultChurnThreshold, 0, false}
			s, ok := runRow(t, sc, want, r, WithDelta(0), WithLambda(0), WithTolerance(dbscan.ActualTolerance))
			if ok {
				runRow(t, sc, want, r, WithDelta(s.Delta), WithLambda(s.Lambda), WithTolerance(dbscan.GlobalTolerance))
			}
		}
	})
}

// TestFilterProducesSuperset pins the filter's no-false-dismissal guarantee
// (§5): with the δ and λ a serial run resolved, every oracle convoy lies
// within some candidate — objects within its support, interval within its
// window.
func TestFilterProducesSuperset(t *testing.T) {
	harness(t, func(t *testing.T, sc scenario, want Result) {
		for _, algo := range algosOf(false, true) {
			v := cutsVariants[queryAlgos[algo].name]
			s, ok := runRow(t, sc, want, row{algo, 1, DefaultChurnThreshold, 0, false})
			if !ok {
				continue
			}
			cands := filterCandidates(sc, v, s)
			for _, c := range want {
				if !slices.ContainsFunc(cands, func(cand Candidate) bool {
					return cand.Start <= c.Start && c.End <= cand.End && subsetSorted(c.Objects, cand.Support)
				}) {
					t.Errorf("%v (δ=%g λ=%d): oracle convoy %v is in no filter candidate %+v", v, s.Delta, s.Lambda, c, cands)
				}
			}
		}
	})
}

// filterCandidates is variant v's filter step at the δ and λ run st resolved.
func filterCandidates(sc scenario, v Variant, st Stats) []Candidate {
	sts := simplify.SimplifyAll(sc.db, st.Delta, v.SimplifyMethod())
	return Filter(sc.db, sc.p, sts, FilterConfig{Lambda: st.Lambda, Bound: v.Bound(), Tolerance: sc.tol, Delta: st.Delta})
}

// TestPropAblationSwitchesPreserveAnswers: the ablation switches (no box
// pruning, no CuTS* clipping, no dominated-candidate pruning) are
// performance levers only — any of them keeps the oracle's answer.
func TestPropAblationSwitchesPreserveAnswers(t *testing.T) {
	harness(t, func(t *testing.T, sc scenario, want Result) {
		for _, algo := range algosOf(false, true) {
			for _, off := range [][3]bool{{true, false, false}, {false, true, false}, {false, false, true}, {true, true, true}} {
				r := row{algo, 1, DefaultChurnThreshold, 0, false}
				if _, ok := runRow(t, sc, want, r, WithAblation(off[0], off[1], off[2])); !ok {
					break
				}
			}
		}
	})
}

// TestPropStreamEqualsCMC: a Streamer fed the scenario tick by tick answers
// the oracle.
func TestPropStreamEqualsCMC(t *testing.T) {
	harness(t, func(t *testing.T, sc scenario, want Result) {
		if got, err := streamDB(sc.db, sc.p); err != nil || !got.Equal(want) {
			t.Fatalf("Streamer ≠ oracle (%v)\n%s", err, answerDiff(got, want))
		}
	})
}

// TestPropMonitorsEqualStreamers: two Monitors — (m, k, e) and (m, k+2, e)
// — sharing one ClusterSource answer the oracle at their parameters, for
// one clustering pass per tick.
func TestPropMonitorsEqualStreamers(t *testing.T) {
	harness(t, func(t *testing.T, sc scenario, want Result) {
		monitorRows(t, sc, want, true)
	})
}

// TestStreamerIncrementalMatchesFromScratch: the shared ClusterSource feeds
// the Monitors the oracle's clusters with its incremental engine on and
// off; its engine and LastPass report which path ran.
func TestStreamerIncrementalMatchesFromScratch(t *testing.T) {
	harness(t, func(t *testing.T, sc scenario, want Result) {
		for _, incremental := range []bool{true, false} {
			src := monitorRows(t, sc, want, incremental)
			engine := src.eng != nil
			lastInc, reclustered := src.LastPass()
			if engine != incremental || !incremental && (lastInc || reclustered == 0) || incremental && sc.lowChurn && !lastInc {
				t.Errorf("incremental=%v: engine = %v, LastPass = (%v, %d)", incremental, engine, lastInc, reclustered)
			}
		}
	})
}

// monitorRows feeds the scenario tick by tick to two Monitors — (m, k, e)
// and (m, k+2, e) — sharing one ClusterSource, its engine on or off, checks
// them against the oracle and the source's one pass per tick, and returns
// the source.
func monitorRows(t *testing.T, sc scenario, want Result, incremental bool) *ClusterSource {
	t.Helper()
	longer := sc.p
	longer.K += 2
	wants := []Result{want, oracleAnswer(sc.db, longer)}
	lo, hi, _ := sc.db.TimeRange()
	ticks := model.TickSpan(lo, hi)
	src, err := NewClusterSource(sc.p.ClusterKey())
	if err != nil {
		t.Fatal(err)
	}
	if !incremental {
		src = newSource(sc.p.ClusterKey(), DefaultClusterer, 0, nil)
	}
	mons := make([]*Monitor, 2)
	out := make([][]Convoy, 2)
	for i, p := range []Params{sc.p, longer} {
		if mons[i], err = NewMonitor(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < ticks; i++ {
		tk := lo + model.Tick(i)
		clusters := src.Snapshot(sc.db.SnapshotAt(tk))
		for j, mon := range mons {
			batch, err := mon.AdvanceClusters(tk, clusters)
			if err != nil {
				t.Fatal(err)
			}
			out[j] = append(out[j], batch...)
		}
	}
	for j, mon := range mons {
		if got := Canonicalize(append(out[j], mon.Close()...)); !got.Equal(wants[j]) {
			t.Fatalf("Monitor %d (incremental=%v) ≠ oracle\n%s", j, incremental, answerDiff(got, wants[j]))
		}
	}
	if src.Passes() != ticks {
		t.Errorf("two monitors on one source: %d clustering passes over %d ticks", src.Passes(), ticks)
	}
	return src
}

// answerDiff lists what a row answered beyond and short of the oracle.
func answerDiff(got, want Result) string {
	var b strings.Builder
	for _, c := range got {
		if !slices.ContainsFunc(want, c.Equal) {
			fmt.Fprintf(&b, "  extra   %v\n", c)
		}
	}
	for _, c := range want {
		if !slices.ContainsFunc(got, c.Equal) {
			fmt.Fprintf(&b, "  missing %v\n", c)
		}
	}
	return b.String()
}

// ---- scenario families ----

// grid builds a database of objects × ticks positions from at(o, tk), which
// may return absent for a sampling gap.
func grid(t *testing.T, objects, ticks int, at func(o, tk int) geom.Point) *model.DB {
	rows := make([][]geom.Point, objects)
	for o := range rows {
		for tk := 0; tk < ticks; tk++ {
			rows[o] = append(rows[o], at(o, tk))
		}
	}
	return buildDB(t, 0, rows...)
}

// randomScenarios: co-moving groups and independent walkers with gaps and
// staggered lifespans; the CuTS rows get an arbitrary δ and λ, global
// tolerances or the automatic guidelines, in turn.
func randomScenarios(t *testing.T) []scenario {
	r := rand.New(rand.NewSource(140))
	var out []scenario
	for i := 0; i < 16; i++ {
		sc := scenario{name: fmt.Sprintf("db%d", i), db: randomDB(r, 5+r.Intn(5), 8+r.Intn(12)),
			p: Params{M: 1 + i%3, K: int64(1 + r.Intn(4)), Eps: 2 + r.Float64()*2.5}}
		switch i % 3 {
		case 0:
			sc.delta, sc.lambda = 0.01+r.Float64()*3, int64(1+r.Intn(7))
		case 1:
			sc.delta, sc.lambda, sc.tol = 0.5+r.Float64(), int64(1+r.Intn(5)), dbscan.GlobalTolerance
		}
		out = append(out, sc)
	}
	return out
}

// epsBoundaryScenarios: a line of objects spaced exactly e apart — along an
// axis and along a 3-4-5 diagonal, at the origin and far from it, where grid
// cells have boundaries at multiples of e — each coordinate dithered by up
// to two ULPs per tick, so who is within e flickers in the last bit.
func epsBoundaryScenarios(t *testing.T) []scenario {
	r := rand.New(rand.NewSource(5))
	ulps := func(x float64) float64 {
		n := r.Intn(5) - 2
		for i := 0; i < n; i++ {
			x = math.Nextafter(x, math.Inf(1))
		}
		for i := 0; i > n; i-- {
			x = math.Nextafter(x, math.Inf(-1))
		}
		return x
	}
	var out []scenario
	for _, dir := range []geom.Point{geom.Pt(1, 0), geom.Pt(0.6, 0.8)} {
		for _, base := range []geom.Point{geom.Pt(0, 0), geom.Pt(1e3, -2e3)} {
			db := grid(t, 6, 12, func(o, _ int) geom.Point {
				p := base.Add(dir.Scale(5 * float64(o)))
				return geom.Pt(ulps(p.X), ulps(p.Y))
			})
			for _, m := range []int{2, 3} {
				out = append(out, scenario{name: fmt.Sprintf("dir=%v/base=%v/m=%d", dir, base, m), db: db, p: Params{M: m, K: 3, Eps: 5}})
			}
		}
	}
	return out
}

// coincidentScenarios: objects hop between stacks of exactly coincident
// points, at e = 0 (only coincident objects are neighbours) and at e = 0.5.
func coincidentScenarios(t *testing.T) []scenario {
	r := rand.New(rand.NewSource(3))
	stacks := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10)}
	at := make([]int, 8)
	db := grid(t, 8, 14, func(o, tk int) geom.Point {
		if tk == 0 || r.Float64() < 0.15 {
			at[o] = r.Intn(len(stacks))
		}
		return stacks[at[o]]
	})
	var out []scenario
	for _, eps := range []float64{0, 0.5} {
		for _, m := range []int{2, 3} {
			out = append(out, scenario{name: fmt.Sprintf("e=%g/m=%d", eps, m), db: db, p: Params{M: m, K: 3, Eps: eps}})
		}
	}
	return out
}

// leaveRejoinScenarios: a group riding one walk whose members step far away
// for a few ticks, twice, and come back, some after a sampling gap; and
// convoyDB's followers, which switch between two anchors and walking alone.
func leaveRejoinScenarios(t *testing.T) []scenario {
	r := rand.New(rand.NewSource(17))
	var out []scenario
	for i := 0; i < 4; i++ {
		const objects, ticks = 6, 30
		walk := []geom.Point{geom.Pt(0, 0)}
		for tk := 1; tk < ticks; tk++ {
			walk = append(walk, walk[tk-1].Add(geom.Pt(r.Float64(), r.Float64()-0.5)))
		}
		away := make([][4]int, objects) // two [from, to) absences, and a gap tick after each
		for o := range away {
			for a := 0; a < 2; a++ {
				from := r.Intn(ticks - 3)
				away[o][2*a], away[o][2*a+1] = from, from+1+r.Intn(4)
			}
		}
		db := grid(t, objects, ticks, func(o, tk int) geom.Point {
			for a := 0; a < 2; a++ {
				switch from, to := away[o][2*a], away[o][2*a+1]; {
				case tk >= from && tk < to:
					return geom.Pt(-20-5*float64(o), float64(tk))
				case tk == to && tk < ticks-1 && o%2 == 0:
					return absent
				}
			}
			return walk[tk].Add(geom.Pt(0.3*float64(o), 0))
		})
		out = append(out, scenario{name: fmt.Sprintf("walk%d", i), db: db, p: Params{M: 2 + i%2, K: int64(3 + i), Eps: 1}})
	}
	for seed := int64(1); seed <= 2; seed++ {
		out = append(out, scenario{name: fmt.Sprintf("anchors%d", seed), db: convoyDB(t, rand.New(rand.NewSource(seed))),
			p: Params{M: 2, K: 3, Eps: 4}})
	}
	return out
}

// bridgingScenarios: two clumps 1.6e apart, density-connected only through
// a bridge between them — one object midway, or (chain) two objects at
// thirds of a 2.4e gap. The bridge role passes round a pool of three every
// few ticks, so no bridge object stays for k ticks. By the source paper's
// definition the clumps are one convoy for as long as some bridge stands,
// and no bridge object belongs to it.
func bridgingScenarios(t *testing.T) []scenario {
	r := rand.New(rand.NewSource(2009))
	const ticks, pool = 24, 3
	var out []scenario
	for _, c := range []struct {
		clump, m int
		chain    bool
	}{{1, 2, false}, {2, 2, false}, {2, 3, false}, {1, 2, true}, {2, 3, true}} {
		gap, width := 1.6, 1
		if c.chain {
			gap, width = 2.4, 2
		}
		turn := make([]int, ticks) // whose turn it is to bridge, per tick
		for tk := 1; tk < ticks; tk++ {
			turn[tk] = turn[tk-1]
			if tk%(3+r.Intn(3)) == 0 {
				turn[tk] = (turn[tk] + 1) % pool
			}
		}
		db := grid(t, 2*c.clump+pool*width, ticks, func(o, tk int) geom.Point {
			x := 2 * float64(tk)
			if o < 2*c.clump {
				return geom.Pt(x+gap*float64(o/c.clump), 0.1*float64(o%c.clump))
			}
			if b, w := (o-2*c.clump)/width, (o-2*c.clump)%width; b == turn[tk] {
				return geom.Pt(x+gap*float64(w+1)/float64(width+1), 0.05)
			}
			return geom.Pt(x, 50+10*float64(o))
		})
		out = append(out, scenario{name: fmt.Sprintf("clump=%d/m=%d/chain=%v", c.clump, c.m, c.chain), db: db,
			p: Params{M: c.m, K: 8, Eps: 1}})
	}
	return out
}

// crowdScenarios: clumps of a mostly frozen crowd whose population grows
// from 100 to 160 objects, so a snapshot crosses the incremental engine's
// all-pairs limit (128) mid-scan while the engine is patching.
func crowdScenarios(t *testing.T) []scenario {
	r := rand.New(rand.NewSource(128))
	centers, pos := make([]geom.Point, 30), make([]geom.Point, 160)
	for i := range centers {
		centers[i] = geom.Pt(r.Float64()*100, r.Float64()*100)
	}
	for o := range pos {
		pos[o] = centers[o%len(centers)].Add(geom.Pt(r.Float64(), r.Float64()))
	}
	db := grid(t, len(pos), 16, func(o, tk int) geom.Point {
		if born := max(0, 1+(o-100)/5); tk < born {
			return absent
		} else if tk > born && r.Float64() < 0.05 {
			pos[o] = pos[o].Add(geom.Pt(r.NormFloat64()*0.3, r.NormFloat64()*0.3))
		}
		return pos[o]
	})
	return []scenario{{name: "grow-100-160", db: db, p: Params{M: 3, K: 4, Eps: 1}}}
}

// chunkScenarios: 1124 ticks, which a two-worker scan cuts into chunks at
// ticks 512 and 1024 (scanChunk). Objects 0–2 ride together until the tick
// before the first cut, 0–1 carry on past the second; 3–4 straddle the
// first cut and 4–5 end on the second.
func chunkScenarios(t *testing.T) []scenario {
	const ticks = 2*scanChunk + 100
	if got := scanChunkFor(ticks, 2); got != scanChunk {
		t.Fatalf("two workers cut %d ticks into chunks of %d, want %d", ticks, got, scanChunk)
	}
	groups := []struct{ lo, hi, from, to int }{ // objects [lo, hi] together over ticks [from, to]
		{0, 2, 0, scanChunk - 1}, {0, 1, scanChunk, 2*scanChunk + 6},
		{3, 4, scanChunk - 12, scanChunk + 11}, {4, 5, 2*scanChunk - 4, 2 * scanChunk},
	}
	r := rand.New(rand.NewSource(512))
	db := grid(t, 6, ticks, func(o, tk int) geom.Point {
		x := math.Abs(float64(tk%100) - 50) // to and fro, so the extent stays small
		for g, grp := range groups {
			if o >= grp.lo && o <= grp.hi && tk >= grp.from && tk <= grp.to {
				return geom.Pt(x, 10*float64(g)+0.2*float64(o)+0.05*r.Float64())
			}
		}
		return geom.Pt(x, 50+5*float64(o)+r.Float64())
	})
	return []scenario{{name: "cuts-at-512", db: db, p: Params{M: 2, K: 5, Eps: 1}}}
}

// mergeScenarios: partition_test.go's hand-built cases around the windows
// WithPartitions cuts.
func mergeScenarios(t *testing.T) []scenario {
	var out []scenario
	for _, c := range mergeCases(t) {
		out = append(out, scenario{name: c.name, db: c.db, p: c.p})
	}
	return out
}

// tickDomainScenarios: a pair and a stray over three ticks at the ends of
// the tick domain — where CuTS must refuse — and at ±2^53, the largest
// domain it accepts.
func tickDomainScenarios(t *testing.T) []scenario {
	p := Params{M: 2, K: 2, Eps: 1}
	return []scenario{
		{name: "MaxTick", db: pairAndStray(t, model.MaxTick-2), p: p, refused: true},
		{name: "MinTick", db: pairAndStray(t, model.MinTick), p: p, refused: true},
		{name: "+2^53", db: pairAndStray(t, maxExactTick-2), p: p},
		{name: "-2^53", db: pairAndStray(t, -maxExactTick), p: p},
	}
}

// churnScenarios: random walkers that are frozen, move 5 % of the time, or
// all move every tick — the incremental engine's reuse, patch and fallback
// cases.
func churnScenarios(t *testing.T) []scenario {
	p := Params{M: 3, K: 5, Eps: 4}
	return []scenario{
		{name: "frozen", db: churnWalkDB(t, 42, 40, 100, 0), p: p, lowChurn: true},
		{name: "low-churn", db: churnWalkDB(t, 42, 40, 100, 0.05), p: p, lowChurn: true},
		{name: "high-churn", db: churnWalkDB(t, 42, 40, 100, 1), p: p, fullChurn: true},
	}
}
