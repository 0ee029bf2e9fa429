package main

import (
	"bytes"
	"strings"
	"testing"
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
