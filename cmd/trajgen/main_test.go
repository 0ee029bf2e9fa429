package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tsio"
)

// A flag the generator cannot honour is one "trajgen:" line and exit 2,
// never a panic or a degenerate dataset.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-profile", "custom", "-ticks", "0"},
		{"-profile", "custom", "-ticks", "-5"},
		{"-profile", "custom", "-objects", "-1"},
		{"-profile", "custom", "-groups", "-1"},
		{"-profile", "custom", "-groupsize", "-1"},
		{"-scale", "0"},
		{"-profile", "cattle", "-scale", "-1"},
		{"-profile", "car", "-scale", "NaN"},
		{"-profile", "nope"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "trajgen: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one trajgen: line", args, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %d bytes of data", args, stdout.Len())
		}
	}
}

// The smallest custom world, one tick, generates.
func TestRunOneTickCustom(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-profile", "custom", "-ticks", "1", "-objects", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "obj,t,x,y\n") || strings.Count(stdout.String(), "\n") < 2 {
		t.Fatalf("output %q", stdout.String())
	}
}

// -out picks the format by the name's suffix: .ctb (any case) is binary
// CTB, anything else CSV, and both hold the dataset stdout gets.
func TestRunOutFormats(t *testing.T) {
	args := []string{"-profile", "custom", "-ticks", "20", "-objects", "3"}
	var want, stderr bytes.Buffer
	if code := run(args, &want, &stderr); code != 0 {
		t.Fatalf("stdout run: exit %d: %s", code, stderr.String())
	}
	dir := t.TempDir()
	for _, name := range []string{"d.csv", "d.ctb", "d.CTB", "d.txt"} {
		path := filepath.Join(dir, name)
		var stdout bytes.Buffer
		if code := run(append(args, "-out", path), &stdout, &stderr); code != 0 || stdout.Len() != 0 {
			t.Fatalf("%s: exit %d, %d bytes on stdout: %s", name, code, stdout.Len(), stderr.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if binary := strings.HasPrefix(string(data), "CTB1"); binary != strings.EqualFold(filepath.Ext(name), ".ctb") {
			t.Errorf("%s: CTB magic present = %v", name, binary)
		}
		db, err := tsio.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got bytes.Buffer
		if err := tsio.WriteCSV(&got, db); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: the file holds another dataset than stdout", name)
		}
	}
	if code := run(append(args, "-out", filepath.Join(dir, "no", "d.csv")), new(bytes.Buffer), &stderr); code != 1 {
		t.Errorf("unwritable path: exit %d, want 1", code)
	}
}
