package convoys_test

import (
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strings"
	"testing"

	convoys "repro"
)

// smallDB builds a database with one obvious convoy through the façade API.
func smallDB(t *testing.T) *convoys.DB {
	t.Helper()
	db := convoys.NewDB()
	for i, y := range []float64{0, 0.5, 50} {
		var samples []convoys.Sample
		for tick := convoys.Tick(0); tick < 10; tick++ {
			samples = append(samples, convoys.S(tick, float64(tick), y))
		}
		tr, err := convoys.NewTrajectory("", samples)
		if err != nil {
			t.Fatal(err)
		}
		if id := db.Add(tr); id != i {
			t.Fatalf("id = %d, want %d", id, i)
		}
	}
	return db
}

func TestDiscoverFacade(t *testing.T) {
	db := smallDB(t)
	p := convoys.Params{M: 2, K: 5, Eps: 1}
	res, err := convoys.Discover(db, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Size() != 2 || res[0].Lifetime() != 10 {
		t.Fatalf("Discover = %v", res)
	}
	// All exposed algorithms agree.
	ref, err := convoys.CMC(db, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []convoys.Variant{convoys.CuTSVariant, convoys.CuTSPlusVariant, convoys.CuTSStarVariant} {
		var st convoys.Stats
		got, err := convoys.NewQuery(convoys.WithParams(p), convoys.WithVariant(variant), convoys.WithStats(&st)).
			Run(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(ref) {
			t.Errorf("%v disagrees with CMC: %v vs %v", variant, got, ref)
		}
		if st.TotalTime() <= 0 {
			t.Errorf("%v reported no time", variant)
		}
	}
}

// Parallel queries built through the facade return exactly the serial
// answers.
func TestFacadeParallelWorkers(t *testing.T) {
	db := smallDB(t)
	p := convoys.Params{M: 2, K: 5, Eps: 1}
	ref, err := convoys.CMC(db, p)
	if err != nil {
		t.Fatal(err)
	}
	if convoys.DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers = %d", convoys.DefaultWorkers())
	}
	for _, workers := range []int{2, convoys.DefaultWorkers()} {
		got, err := convoys.NewQuery(convoys.WithParams(p), convoys.WithCMC(), convoys.WithWorkers(workers)).
			Run(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(ref) {
			t.Errorf("CMC on %d workers = %v, want %v", workers, got, ref)
		}
		var st convoys.Stats
		res, err := convoys.NewQuery(convoys.WithParams(p), convoys.WithWorkers(workers), convoys.WithStats(&st)).
			Run(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(ref) {
			t.Errorf("CuTS* on %d workers = %v, want %v", workers, res, ref)
		}
		if st.Workers != workers {
			t.Errorf("stats workers = %d, want %d", st.Workers, workers)
		}
	}
}

func TestFacadeCSVRoundTrip(t *testing.T) {
	db := smallDB(t)
	var buf bytes.Buffer
	if err := convoys.WriteCSV(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := convoys.ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("round trip lost objects: %d vs %d", back.Len(), db.Len())
	}
}

func TestFacadeSimplifyAndDelta(t *testing.T) {
	db := smallDB(t)
	st := convoys.Simplify(db.Traj(0), 0.5, convoys.DP)
	if st.Len() < 2 {
		t.Errorf("simplified to %d points", st.Len())
	}
	if d := convoys.ComputeDelta(db, 1); d <= 0 || d >= 1 {
		t.Errorf("ComputeDelta = %g", d)
	}
}

// The default Clusterer is snapshot DBSCAN: the two near points form the one
// cluster, the far point is noise.
func TestFacadeDBSCAN(t *testing.T) {
	pts := []convoys.Point{convoys.Pt(0, 0), convoys.Pt(0.5, 0), convoys.Pt(10, 10)}
	clusters := convoys.DefaultClusterer().Clusters(
		convoys.ClusterKey{Eps: 1, M: 2},
		convoys.TickSnapshot{IDs: []convoys.ObjectID{0, 1, 2}, Pts: pts})
	if !reflect.DeepEqual(clusters, [][]convoys.ObjectID{{0, 1}}) {
		t.Errorf("DBSCAN clusters = %v, want [[0 1]]", clusters)
	}
}

func TestFacadeProfilesAndMC2(t *testing.T) {
	prof := convoys.TaxiProfile(0.01, 3)
	db := prof.Generate()
	if db.Len() == 0 {
		t.Fatal("profile generated nothing")
	}
	p := convoys.Params{M: prof.M, K: prof.K, Eps: prof.Eps}
	ref, err := convoys.CMC(db, p)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := convoys.MC2(db, p, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	rep := convoys.CompareAnswers(mc, ref)
	if rep.Reported != len(mc) || rep.Reference != len(ref) {
		t.Errorf("accuracy counts wrong: %+v", rep)
	}
}

func TestFacadeScenario(t *testing.T) {
	sc := convoys.Scenario{
		Seed: 1, T: 30, World: 100, Speed: 2,
		Groups:   []convoys.GroupSpec{{Size: 3, Start: 0, End: 29, Spacing: 1}},
		KeepProb: 1,
	}
	db := sc.Generate()
	if db.Len() != 3 {
		t.Fatalf("scenario objects = %d", db.Len())
	}
	res, err := convoys.Discover(db, convoys.Params{M: 3, K: 20, Eps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Size() != 3 {
		t.Errorf("planted group not found: %v", res)
	}
}

func TestFacadeCanonicalize(t *testing.T) {
	c1 := convoys.Convoy{Objects: []convoys.ObjectID{0, 1}, Start: 0, End: 9}
	c2 := convoys.Convoy{Objects: []convoys.ObjectID{0}, Start: 2, End: 7} // dominated
	res := convoys.Canonicalize([]convoys.Convoy{c1, c2})
	if len(res) != 1 || !res[0].Equal(c1) {
		t.Errorf("Canonicalize = %v", res)
	}
}

// labeled renders convoys in label space, sorted — the common ground of
// two databases that number the same objects differently.
func labeled(res convoys.Result, label func(convoys.ObjectID) string) []string {
	out := []string{}
	for _, c := range res {
		names := make([]string, len(c.Objects))
		for i, id := range c.Objects {
			names[i] = label(id)
		}
		sort.Strings(names)
		out = append(out, fmt.Sprintf("%v@[%d,%d]", names, c.Start, c.End))
	}
	sort.Strings(out)
	return out
}

// TestGraphClustererWindow is the contact-log query the daemon no longer
// takes, through the library: GraphClusterer over a hand-checked a,b,t,w
// log finds its one convoy (under CMC only), and over ProximityLogFromDB's
// log cut to a window by Log.Window it answers exactly what DBSCAN answers
// over the positions in that window at m = 2, where the two density
// notions coincide.
func TestGraphClustererWindow(t *testing.T) {
	ctx := context.Background()
	// a–b and b–c in contact over ticks 1..5 (a convoy {a,b,c} under m=3,
	// k=3, e=1 by transitivity), a weak d–a contact below the threshold,
	// and an undersized trailing a–b contact.
	csv := "a,b,t,w\n"
	for tick := 1; tick <= 5; tick++ {
		csv += fmt.Sprintf("a,b,%d,1\nb,c,%d,1\n", tick, tick)
	}
	csv += "d,a,1,0.5\na,b,6,1\n"
	log, err := convoys.ReadProximityLog(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	ldb, err := log.DB()
	if err != nil {
		t.Fatal(err)
	}
	graph := []convoys.QueryOption{convoys.M(3), convoys.K(3), convoys.Eps(1), convoys.WithClusterer(convoys.GraphClusterer(log))}
	res, err := convoys.NewQuery(append(graph, convoys.WithCMC())...).Run(ctx, ldb)
	if err != nil {
		t.Fatal(err)
	}
	if got := labeled(res, log.Label); !reflect.DeepEqual(got, []string{"[a b c]@[1,5]"}) {
		t.Fatalf("contact-log convoys = %v, want [a b c]@[1,5]", got)
	}
	if _, err := convoys.NewQuery(graph...).Run(ctx, ldb); err == nil || !strings.Contains(err.Error(), "CMC") {
		t.Fatalf("graph backend under CuTS*: err = %v, want the CMC requirement", err)
	}

	prof := convoys.ContactProfile(0.2, 1)
	db := prof.Generate()
	full, err := convoys.ProximityLogFromDB(db, prof.Eps)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := db.TimeRange()
	mid := lo + (hi-lo)/2
	for _, w := range [][2]convoys.Tick{{lo, hi}, {lo + 7, mid}, {mid - 40, hi - 3}} {
		// DBSCAN over the window: every object is sampled at every tick of
		// its span, so keeping the in-window samples is the exact slice.
		wdb := convoys.NewDB()
		for _, tr := range db.Trajectories() {
			var in []convoys.Sample
			for _, s := range tr.Samples {
				if s.T >= w[0] && s.T <= w[1] {
					in = append(in, s)
				}
			}
			if len(in) == 0 {
				continue
			}
			wtr, err := convoys.NewTrajectory(tr.Label, in)
			if err != nil {
				t.Fatal(err)
			}
			wdb.Add(wtr)
		}
		want, err := convoys.NewQuery(convoys.M(2), convoys.K(prof.K), convoys.Eps(prof.Eps), convoys.WithCMC()).Run(ctx, wdb)
		if err != nil {
			t.Fatal(err)
		}
		wlog, err := full.Window(w[0], w[1])
		if err != nil {
			t.Fatal(err)
		}
		wldb, err := wlog.DB()
		if err != nil {
			t.Fatal(err)
		}
		got, err := convoys.NewQuery(convoys.M(2), convoys.K(prof.K), convoys.Eps(1), convoys.WithCMC(),
			convoys.WithClusterer(convoys.GraphClusterer(wlog))).Run(ctx, wldb)
		if err != nil {
			t.Fatal(err)
		}
		wantL := labeled(want, func(id convoys.ObjectID) string { return wdb.Traj(id).Label })
		if gotL := labeled(got, wlog.Label); len(wantL) == 0 || !reflect.DeepEqual(gotL, wantL) {
			t.Errorf("window %v: graph convoys %v, DBSCAN convoys %v; want equal and non-empty", w, gotL, wantL)
		}
	}
}

// facadeSurface is every exported top-level name of package convoys: the
// paper's library — model, Query and its options, the streaming engine,
// clustering backends, simplification, baselines of the accuracy study,
// file formats, synthetic data — and nothing of the daemon. A name added to
// convoys.go must be added here, which is the point: the facade grows by
// decision, not by drift.
var facadeSurface = []string{
	"AccuracyReport", "CMC", "Candidate", "Canonicalize", "CarProfile", "CattleProfile",
	"ClusterKey", "ClusterSource", "Clusterer", "CompareAnswers", "ComputeDelta",
	"ContactProfile", "Convoy", "CuTSPlusVariant", "CuTSStarVariant", "CuTSVariant", "DB",
	"DBStats", "DP", "DPPlus", "DPStar", "DefaultChurnThreshold", "DefaultClusterer",
	"DefaultWorkers", "Discover", "EdgeRecord", "Eps", "GraphClusterer", "GroupSpec", "K",
	"LoadBinary", "LoadCSV", "LoadEdgeCSV", "LoadProximityLog", "M", "MC2", "Monitor",
	"NewClusterSource", "NewClusterSourceWith", "NewDB", "NewMonitor", "NewProximityLog",
	"NewQuery", "NewStreamer", "NewTrajectory", "ObjectID", "Params", "Point", "Profile",
	"ProxEdge", "ProximityLog", "ProximityLogFromDB", "Pt", "Query", "QueryOption",
	"ReadBinary", "ReadCSV", "ReadEdgeCSV", "ReadProximityLog", "ReplayTicks", "Result",
	"S", "Sample", "SaveBinary", "SaveCSV", "SaveEdgeCSV", "Scenario",
	"SimplifiedTrajectory", "Simplify", "SimplifyMethod", "Stats", "Streamer",
	"TaxiProfile", "Tick", "TickSnapshot", "Trajectory", "TruckProfile", "Variant",
	"WithCMC", "WithClusterer", "WithDelta", "WithIncremental", "WithLambda", "WithLimit",
	"WithParams", "WithPartitions", "WithStats", "WithVariant", "WithWorkers",
	"WriteBinary", "WriteCSV", "WriteEdgeCSV",
}

func TestFacadeSurface(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "convoys.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	export := func(id *ast.Ident) {
		if id.IsExported() {
			got = append(got, id.Name)
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				export(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					export(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						export(id)
					}
				}
			}
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, facadeSurface) {
		t.Errorf("package convoys exports %d names, the golden list has %d:\n got: %v\nwant: %v",
			len(got), len(facadeSurface), got, facadeSurface)
	}
}
