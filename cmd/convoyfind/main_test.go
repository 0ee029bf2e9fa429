package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	convoys "repro"
	"repro/internal/datagen"
	"repro/internal/serve"
	"repro/internal/wire"
)

// runArgs invokes run with the historical positional settings, keeping
// the pre-options tests readable.
func runArgs(out *bytes.Buffer, input string, m int, k int64, e float64, algo string, delta float64, lambda int64, workers int, stats bool, format string) error {
	return run(context.Background(), out, options{
		input: input, m: m, k: k, e: e, algo: algo,
		delta: delta, lambda: lambda, workers: workers,
		stats: stats, format: format,
	})
}

// writeFixture stores a small two-convoy dataset in the given format and
// returns its path.
func writeFixture(t *testing.T, dir, name string) string {
	t.Helper()
	db := convoys.NewDB()
	for i, y := range []float64{0, 0.5, 50, 50.5} {
		var samples []convoys.Sample
		for tick := convoys.Tick(0); tick < 10; tick++ {
			samples = append(samples, convoys.S(tick, float64(tick), y))
		}
		tr, err := convoys.NewTrajectory([]string{"a", "b", "c", "d"}[i], samples)
		if err != nil {
			t.Fatal(err)
		}
		db.Add(tr)
	}
	path := filepath.Join(dir, name)
	writeDB(t, path, db)
	return path
}

// writeDB stores db at path: as CTB when the name ends in .ctb, as CSV
// otherwise.
func writeDB(t *testing.T, path string, db *convoys.DB) {
	t.Helper()
	var buf bytes.Buffer
	write := convoys.WriteCSV
	if strings.HasSuffix(path, ".ctb") {
		write = convoys.WriteBinary
	}
	if err := write(&buf, db); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunTextOutputAllAlgorithms(t *testing.T) {
	dir := t.TempDir()
	path := writeFixture(t, dir, "two.csv")
	for _, algo := range []string{"cmc", "cuts", "cuts+", "cuts*", "CUTS*"} {
		var buf bytes.Buffer
		if err := runArgs(&buf, path, 2, 5, 1, algo, 0, 0, 2, true, "text"); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		out := buf.String()
		if !strings.Contains(out, "2 convoy(s)") {
			t.Errorf("%s: expected 2 convoys:\n%s", algo, out)
		}
		if !strings.Contains(out, "{a, b}") || !strings.Contains(out, "{c, d}") {
			t.Errorf("%s: labels missing:\n%s", algo, out)
		}
		if algo != "cmc" && !strings.Contains(out, "timings:") {
			t.Errorf("%s: stats missing:\n%s", algo, out)
		}
	}
}

func TestRunBinaryInput(t *testing.T) {
	dir := t.TempDir()
	path := writeFixture(t, dir, "two.ctb")
	var buf bytes.Buffer
	if err := runArgs(&buf, path, 2, 5, 1, "cuts*", 0, 0, 2, false, "text"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2 convoy(s)") {
		t.Errorf("binary input output:\n%s", buf.String())
	}
	// The bytes decide the format, as they always did for a server upload:
	// a CTB file named *.csv and a CSV named *.ctb both load.
	for from, to := range map[string]string{path: "ctb-inside.csv", writeFixture(t, dir, "two.csv"): "csv-inside.ctb"} {
		swapped := filepath.Join(dir, to)
		if err := os.Rename(from, swapped); err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		if err := runArgs(&buf, swapped, 2, 5, 1, "cuts*", 0, 0, 2, false, "text"); err != nil {
			t.Fatalf("%s: %v", to, err)
		}
		if !strings.Contains(buf.String(), "2 convoy(s)") {
			t.Errorf("%s output:\n%s", to, buf.String())
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	dir := t.TempDir()
	path := writeFixture(t, dir, "two.csv")
	var buf bytes.Buffer
	if err := runArgs(&buf, path, 2, 5, 1, "cuts*", 0, 0, 2, false, "json"); err != nil {
		t.Fatal(err)
	}
	// One wire-schema JSON object per line.
	var payload []wire.ConvoyJSON
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var c wire.ConvoyJSON
		if err := json.Unmarshal([]byte(line), &c); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		payload = append(payload, c)
	}
	if len(payload) != 2 {
		t.Fatalf("JSON convoys = %d", len(payload))
	}
	for _, c := range payload {
		if c.Lifetime != 10 || len(c.Objects) != 2 {
			t.Errorf("JSON convoy = %+v", c)
		}
	}
}

// TestRunJSONArrayOutput covers the historical -json shape: one indented
// array of wire-schema objects.
func TestRunJSONArrayOutput(t *testing.T) {
	dir := t.TempDir()
	path := writeFixture(t, dir, "two.csv")
	var buf bytes.Buffer
	if err := runArgs(&buf, path, 2, 5, 1, "cuts*", 0, 0, 2, false, "json-array"); err != nil {
		t.Fatal(err)
	}
	var payload []wire.ConvoyJSON
	if err := json.Unmarshal(buf.Bytes(), &payload); err != nil {
		t.Fatalf("invalid JSON array: %v\n%s", err, buf.String())
	}
	if len(payload) != 2 {
		t.Fatalf("JSON convoys = %d", len(payload))
	}
}

func TestRunRejectsUnknownFormat(t *testing.T) {
	dir := t.TempDir()
	path := writeFixture(t, dir, "two.csv")
	var buf bytes.Buffer
	if err := runArgs(&buf, path, 2, 5, 1, "cuts*", 0, 0, 2, false, "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	path := writeFixture(t, dir, "two.csv")
	var buf bytes.Buffer
	if err := runArgs(&buf, filepath.Join(dir, "missing.csv"), 2, 5, 1, "cuts*", 0, 0, 2, false, "text"); err == nil {
		t.Error("missing input accepted")
	}
	if err := runArgs(&buf, path, 2, 5, 1, "nope", 0, 0, 2, false, "text"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := runArgs(&buf, path, 0, 5, 1, "cmc", 0, 0, 2, false, "text"); err == nil {
		t.Error("invalid m accepted")
	}
	// Corrupt CSV.
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("not,a,header\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runArgs(&buf, bad, 2, 5, 1, "cmc", 0, 0, 2, false, "text"); err == nil {
		t.Error("corrupt CSV accepted")
	}
}

// -format jsonl streams one wire-schema object per line, same payloads as
// -format json.
func TestRunJSONLStreamingOutput(t *testing.T) {
	dir := t.TempDir()
	path := writeFixture(t, dir, "two.csv")
	var batch, stream bytes.Buffer
	if err := runArgs(&batch, path, 2, 5, 1, "cmc", 0, 0, 2, false, "json"); err != nil {
		t.Fatal(err)
	}
	if err := runArgs(&stream, path, 2, 5, 1, "cmc", 0, 0, 2, false, "jsonl"); err != nil {
		t.Fatal(err)
	}
	decode := func(buf *bytes.Buffer) []wire.ConvoyJSON {
		var out []wire.ConvoyJSON
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var c wire.ConvoyJSON
			if err := json.Unmarshal([]byte(line), &c); err != nil {
				t.Fatalf("invalid JSONL line %q: %v", line, err)
			}
			out = append(out, c)
		}
		return out
	}
	got, want := decode(&stream), decode(&batch)
	if len(got) != len(want) {
		t.Fatalf("jsonl streamed %d convoys, json printed %d", len(got), len(want))
	}
	for _, g := range got {
		found := false
		for _, w := range want {
			if g.Start == w.Start && g.End == w.End && strings.Join(g.Objects, ",") == strings.Join(w.Objects, ",") {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("streamed convoy %+v missing from the batch answer %+v", g, want)
		}
	}
}

// -limit stops the scan after n convoys in every format.
func TestRunLimit(t *testing.T) {
	dir := t.TempDir()
	path := writeFixture(t, dir, "two.csv")
	for _, format := range []string{"json", "jsonl"} {
		var buf bytes.Buffer
		err := run(context.Background(), &buf, options{
			input: path, m: 2, k: 5, e: 1, algo: "cmc",
			workers: 1, limit: 1, format: format,
		})
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if lines := strings.Split(strings.TrimSpace(buf.String()), "\n"); len(lines) != 1 {
			t.Fatalf("%s with -limit 1 printed %d convoys", format, len(lines))
		}
	}
}

// A cancelled context aborts the run with the context error, in both the
// batch and streaming paths.
func TestRunCancelled(t *testing.T) {
	dir := t.TempDir()
	path := writeFixture(t, dir, "two.csv")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, format := range []string{"text", "jsonl"} {
		var buf bytes.Buffer
		err := run(ctx, &buf, options{
			input: path, m: 2, k: 5, e: 1, algo: "cmc",
			workers: 1, format: format,
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", format, err)
		}
	}
}

// mainArgsEnv carries the arguments TestRunProxgraphContactLog runs main
// with in a child process of the test binary.
const mainArgsEnv = "CONVOYFIND_TEST_MAIN_ARGS"

// TestRunProxgraphContactLog: convoyfind clusters positions only — convoys
// in an "a,b,t,w" contact log are the library's (convoys.WithClusterer, see
// ExampleWithClusterer) — so -clusterer is an unknown flag, whatever backend
// it names: the process exits 2 before it reads the input.
func TestRunProxgraphContactLog(t *testing.T) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"convoyfind"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	path := filepath.Join(t.TempDir(), "contacts.csv")
	if err := os.WriteFile(path, []byte("a,b,t,w\na,b,1,1\na,b,2,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"proxgraph", "dbscan"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRunProxgraphContactLog$")
		cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(
			[]string{"-input", path, "-m", "2", "-k", "2", "-e", "1", "-algo", "cmc", "-clusterer", backend}, "\n"))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-clusterer %s: err = %v, want exit status 2\nstderr: %s", backend, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-clusterer") || stdout.Len() != 0 {
			t.Fatalf("-clusterer %s: stdout %q, stderr %q; want only a usage error naming the flag", backend, stdout.String(), stderr.String())
		}
	}
}

// TestCLIAndServerAgree holds the one query front-end: a spec run through
// convoyfind's run and through POST /v1/query yields the same convoys, byte
// for byte as wire JSON, and a spec wire rejects is rejected in the same
// words on both sides.
func TestCLIAndServerAgree(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	prof := datagen.Contact(0.2, 1)
	positions := filepath.Join(t.TempDir(), "positions.ctb")
	writeDB(t, positions, prof.Generate())

	// server posts the input with the options' spec on the URL, as an upload
	// client does, and returns the answer as convoyfind -format json prints
	// it — or the error envelope's message.
	server := func(o options) (string, error) {
		data, err := os.ReadFile(o.input)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/query?"+o.spec().URLValues().Encode(), "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusBadRequest {
			var env wire.ErrorJSON
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("error envelope %q: %v", body, err)
			}
			return "", errors.New(env.Error.Message)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/query: %d %s", resp.StatusCode, body)
		}
		var qr serve.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		for _, c := range qr.Convoys {
			if err := enc.Encode(c); err != nil {
				t.Fatal(err)
			}
		}
		return out.String(), nil
	}

	base := options{m: prof.M, k: prof.K, e: prof.Eps, workers: 2, format: "json"}
	var specs []options
	for _, algo := range []string{"", "cmc", "cuts", "cuts+", "cuts*"} {
		o := base
		o.input, o.algo = positions, algo
		specs = append(specs, o)
		o.delta, o.lambda = 1.5, 12 // given, not the automatic guidelines
		specs = append(specs, o)
	}
	for _, o := range specs {
		name := fmt.Sprintf("algo=%q delta=%g lambda=%d", o.algo, o.delta, o.lambda)
		var cli bytes.Buffer
		if err := run(context.Background(), &cli, o); err != nil {
			t.Fatalf("%s: convoyfind: %v", name, err)
		}
		got, err := server(o)
		if err != nil {
			t.Fatalf("%s: server: %v", name, err)
		}
		if got != cli.String() {
			t.Errorf("%s: server and convoyfind disagree\nserver:\n%s\nconvoyfind:\n%s", name, got, cli.String())
		}
		if cli.Len() == 0 {
			t.Errorf("%s: no convoys — the comparison is vacuous", name)
		}
	}

	reject := func(mut func(*options)) options {
		o := base
		o.input = positions
		mut(&o)
		return o
	}
	for name, o := range map[string]options{
		"unknown algorithm": reject(func(o *options) { o.algo = "nope" }),
		"m < 1":             reject(func(o *options) { o.m = 0 }),
		"k < 1":             reject(func(o *options) { o.k = 0 }),
	} {
		cliErr := run(context.Background(), io.Discard, o)
		_, srvErr := server(o)
		if cliErr == nil || srvErr == nil {
			t.Errorf("%s: convoyfind err = %v, server err = %v; want both rejected", name, cliErr, srvErr)
			continue
		}
		if cliErr.Error() != srvErr.Error() {
			t.Errorf("%s: worded differently\nconvoyfind: %s\nserver:     %s", name, cliErr, srvErr)
		}
	}
}
