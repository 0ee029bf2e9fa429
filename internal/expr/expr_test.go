package expr

import (
	"bytes"
	"strings"
	"testing"
)

// tinyOptions runs the harness at a very small scale so the whole suite
// stays fast in CI.
func tinyOptions(buf *bytes.Buffer) Options {
	return Options{Scale: 0.004, Seed: 7, Out: buf}
}

func TestTable3Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"Truck", "Cattle", "Car", "Taxi"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table3 output misses %s:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "convoys") {
		t.Errorf("Table3 header missing:\n%s", out)
	}
}

func TestFigure12RunsAndAgrees(t *testing.T) {
	var buf bytes.Buffer
	// Figure12 internally asserts that every CuTS variant returns the CMC
	// answer; an error here would mean a correctness regression.
	if err := Figure12(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "speedup") {
		t.Errorf("Figure12 output:\n%s", buf.String())
	}
}

func TestFigure13Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure13(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"CuTS", "CuTS+", "CuTS*", "simplify", "refine"} {
		if !strings.Contains(buf.String(), m) {
			t.Errorf("Figure13 misses %q:\n%s", m, buf.String())
		}
	}
}

func TestFigure14Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure14(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cand(actual)") {
		t.Errorf("Figure14 output:\n%s", buf.String())
	}
}

func TestFigure15Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure15(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, m := range []string{"DP", "DP+", "DP*", "reduction"} {
		if !strings.Contains(out, m) {
			t.Errorf("Figure15 misses %q:\n%s", m, out)
		}
	}
}

func TestFigure16And17Run(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	if err := Figure16(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Car") || !strings.Contains(buf.String(), "Taxi") ||
		!strings.Contains(buf.String(), "tolerance δ\n") || !strings.Contains(buf.String(), "δ  ") {
		t.Errorf("Figure16 output:\n%s", buf.String())
	}
	buf.Reset()
	if err := Figure17(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Truck") || !strings.Contains(buf.String(), "Cattle") ||
		!strings.Contains(buf.String(), "length λ\n") || !strings.Contains(buf.String(), "λ  ") {
		t.Errorf("Figure17 output:\n%s", buf.String())
	}
}

func TestFigure19Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure19(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "false pos%") || !strings.Contains(out, "0.4") || !strings.Contains(out, "θ  ") {
		t.Errorf("Figure19 output:\n%s", out)
	}
}

func TestLookupAndRunAll(t *testing.T) {
	if _, ok := Lookup("fig12"); !ok {
		t.Error("fig12 not found")
	}
	if _, ok := Lookup("nonsense"); ok {
		t.Error("nonsense found")
	}
	if len(Experiments) != 8 {
		t.Errorf("expected the paper's 8 experiments, got %d", len(Experiments))
	}
	var buf bytes.Buffer
	if err := RunAll(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments {
		if strings.Contains(e.Desc, "Î") {
			t.Errorf("%s: double-encoded description %q", e.ID, e.Desc)
		}
	}
	if strings.Contains(buf.String(), "Î") {
		t.Errorf("RunAll output holds double-encoded Greek:\n%s", buf.String())
	}
	if len(buf.String()) < 500 {
		t.Errorf("RunAll output suspiciously short:\n%s", buf.String())
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{Scale: 0.004, Seed: 1}
	if o.out() == nil {
		t.Error("nil out writer")
	}
	if len(o.profiles()) != 4 {
		t.Error("default profiles missing")
	}
}

// Worker counts must not change any experiment's answers: Figure 12 runs
// its own cross-algorithm equality check internally, so running it with a
// parallel option set doubles as an end-to-end equivalence test.
func TestFigure12ParallelWorkers(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Workers = 4
	if err := Figure12(o); err != nil {
		t.Fatal(err)
	}
}
