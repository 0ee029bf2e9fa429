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

// smallQuery is the query smallDB is built for (m = 2, k = 5, e = 1) under
// further options.
func smallQuery(opts ...convoys.QueryOption) *convoys.Query {
	return convoys.NewQuery(append([]convoys.QueryOption{convoys.M(2), convoys.K(5), convoys.Eps(1)}, opts...)...)
}

func TestDiscoverFacade(t *testing.T) {
	db := smallDB(t)
	res, err := smallQuery().Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Size() != 2 || res[0].Lifetime() != 10 {
		t.Fatalf("default query = %v", res)
	}
	// All exposed algorithms agree.
	ref, err := smallQuery(convoys.WithCMC()).Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []convoys.Variant{convoys.CuTSVariant, convoys.CuTSPlusVariant, convoys.CuTSStarVariant} {
		var st convoys.Stats
		got, err := smallQuery(convoys.WithVariant(variant), convoys.WithStats(&st)).Run(context.Background(), db)
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
	ref, err := smallQuery(convoys.WithCMC()).Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if convoys.DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers = %d", convoys.DefaultWorkers())
	}
	for _, workers := range []int{2, convoys.DefaultWorkers()} {
		got, err := smallQuery(convoys.WithCMC(), convoys.WithWorkers(workers)).Run(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(ref) {
			t.Errorf("CMC on %d workers = %v, want %v", workers, got, ref)
		}
		var st convoys.Stats
		res, err := smallQuery(convoys.WithWorkers(workers), convoys.WithStats(&st)).Run(context.Background(), db)
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

// The default Clusterer is snapshot DBSCAN, and WithClusterer(nil)
// restores it: smallDB's two near objects form the convoy, the far one is
// noise.
func TestFacadeDBSCAN(t *testing.T) {
	want := convoys.Result{{Objects: []convoys.ObjectID{0, 1}, Start: 0, End: 9}}
	got, err := smallQuery(convoys.WithCMC(), convoys.WithClusterer(nil)).Run(context.Background(), smallDB(t))
	if err != nil || !got.Equal(want) {
		t.Errorf("WithClusterer(nil) = %v, %v; want %v", got, err, want)
	}
}

// A synthetic profile generates its dataset, and its own query finds the
// same convoys under CMC and CuTS*.
func TestFacadeProfiles(t *testing.T) {
	prof := convoys.TaxiProfile(0.01, 3)
	db := prof.Generate()
	if db.Len() == 0 {
		t.Fatal("profile generated nothing")
	}
	query := func(opts ...convoys.QueryOption) (convoys.Result, error) {
		opts = append(opts, convoys.M(prof.M), convoys.K(prof.K), convoys.Eps(prof.Eps))
		return convoys.NewQuery(opts...).Run(context.Background(), db)
	}
	ref, err := query(convoys.WithCMC())
	if err != nil {
		t.Fatal(err)
	}
	got, err := query()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ref) {
		t.Errorf("CuTS* = %v, CMC = %v", got, ref)
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
// takes, through the library: a log's Clusterer over a hand-checked a,b,t,w
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
	graph := []convoys.QueryOption{convoys.M(3), convoys.K(3), convoys.Eps(1), convoys.WithClusterer(log.Clusterer())}
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
			convoys.WithClusterer(wlog.Clusterer())).Run(ctx, wldb)
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
// paper's library and one way to do each thing — the model, NewQuery and
// its options, a Streamer for live feeds, the clustering-backend seam with
// the contact-log backend, the two database formats over io.Reader and
// io.Writer, synthetic data — and nothing of the daemon, the evaluation or
// the tuning internals. A name added to convoys.go must be added here, which
// is the point: the facade grows by decision, not by drift.
var facadeSurface = []string{
	"Canonicalize", "CarProfile", "CattleProfile", "ClusterKey", "Clusterer",
	"ContactProfile", "Convoy", "CuTSPlusVariant", "CuTSStarVariant", "CuTSVariant", "DB",
	"DefaultWorkers", "Eps", "K", "M", "NewDB", "NewProximityLog", "NewQuery", "NewStreamer",
	"NewTrajectory", "ObjectID", "Params", "Point", "Profile", "ProximityLog",
	"ProximityLogFromDB", "Pt", "Query", "QueryOption", "ReadBinary", "ReadCSV",
	"ReadProximityLog", "ReplayTicks", "Result", "S", "Sample", "Stats", "Streamer",
	"TaxiProfile", "Tick", "TickSnapshot", "Trajectory", "TruckProfile", "Variant", "WithCMC",
	"WithClusterer", "WithLimit", "WithStats", "WithVariant", "WithWorkers", "WriteBinary",
	"WriteCSV",
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
