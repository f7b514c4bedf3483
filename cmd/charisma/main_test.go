package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// update rewrites the checked-in golden files under cmd/charisma/
// testdata instead of comparing against them.
var update = flag.Bool("update", false, "rewrite golden files")

// TestParseSeeds covers the seed grammar: values, ranges, and the
// two freely mixed ("3,1-5" was once rejected as one bad range).
func TestParseSeeds(t *testing.T) {
	cases := []struct {
		in   string
		want []uint64
	}{
		{"", []uint64{7}}, // fallback
		{"5", []uint64{5}},
		{"1,5,9", []uint64{1, 5, 9}},
		{"1-4", []uint64{1, 2, 3, 4}},
		{"3,1-5", []uint64{3, 1, 2, 3, 4, 5}},
		{"1-2,9,4-5", []uint64{1, 2, 9, 4, 5}},
		{" 2 , 4 - 6 ", []uint64{2, 4, 5, 6}},
	}
	for _, tc := range cases {
		got, err := parseSeeds(tc.in, 7)
		if err != nil {
			t.Errorf("parseSeeds(%q): %v", tc.in, err)
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("parseSeeds(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}

	// Errors must name the offending part, not the whole spec.
	bad := []struct{ in, part string }{
		{"3,x", `"x"`},
		{"5-1", `"5-1"`},
		{"1-2,7-3", `"7-3"`},
		{"1,,2", `""`},
		{"1-99999999999", `"1-99999999999"`},
	}
	for _, tc := range bad {
		_, err := parseSeeds(tc.in, 7)
		if err == nil {
			t.Errorf("parseSeeds(%q) accepted", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.part) {
			t.Errorf("parseSeeds(%q) error %q does not name the offending part %s", tc.in, err, tc.part)
		}
	}
}

// TestParseScales covers the scale list, including the non-finite
// values that once slipped through the `v <= 0` guard.
func TestParseScales(t *testing.T) {
	got, err := parseScales("0.05, 0.1", 1)
	if err != nil || len(got) != 2 || got[0] != 0.05 || got[1] != 0.1 {
		t.Fatalf("parseScales list = %v, %v", got, err)
	}
	if got, err := parseScales("", 0.25); err != nil || len(got) != 1 || got[0] != 0.25 {
		t.Fatalf("parseScales fallback = %v, %v", got, err)
	}
	for _, bad := range []string{"NaN", "nan", "Inf", "-Inf", "+Inf", "0", "-1", "x", "0.1,NaN"} {
		if _, err := parseScales(bad, 1); err == nil {
			t.Errorf("parseScales(%q) accepted", bad)
		}
	}
}

// app runs appMain with captured output.
func app(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = appMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFig8And9 pins the -fig 8/-fig 9 wiring: both figures run the
// cache simulations on the study's own trace instead of printing "no
// such figure".
func TestFig8And9(t *testing.T) {
	code, out, stderr := app("-fig", "8", "-scale", "0.01")
	if code != 0 {
		t.Fatalf("-fig 8 exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "Figure 8: compute-node caching") {
		t.Fatalf("-fig 8 output missing the figure:\n%s", out)
	}
	code, out, stderr = app("-fig", "9", "-scale", "0.01")
	if code != 0 {
		t.Fatalf("-fig 9 exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "Figure 9: I/O-node caching") || !strings.Contains(out, "FIFO") {
		t.Fatalf("-fig 9 output missing the figure:\n%s", out)
	}

	// Out-of-range figures are an error exit now, not a stdout note.
	code, _, stderr = app("-fig", "12", "-scale", "0.01")
	if code == 0 || !strings.Contains(stderr, "no such figure") {
		t.Fatalf("-fig 12: exit %d, stderr %q", code, stderr)
	}
}

// TestTraceOutFailsBeforeStudy: -trace creates its output before the
// study runs, so an uncreatable path is reported as such even when the
// study never gets to run (an already-cancelled context), and an
// interrupted study leaves no trace file behind.
func TestTraceOutFailsBeforeStudy(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := appConfig{scale: 0.01, seed: 1, traceOut: filepath.Join(dir, "no", "such", "t.trc")}
	err := run(ctx, cfg, io.Discard, io.Discard)
	if !errors.Is(err, fs.ErrNotExist) || strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("uncreatable -trace under a cancelled study: err = %v, want the path error", err)
	}
	cfg.traceOut = filepath.Join(dir, "t.trc")
	if err := run(ctx, cfg, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("cancelled study with -trace: err = %v, want interrupted", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("interrupted -trace study left %d entries behind", len(entries))
	}
}

// TestTraceOutErrorLeavesNothing: -trace into a directory that does
// not exist is an error exit that creates nothing, and a good path
// gets a trace that reads back.
func TestTraceOutErrorLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := app("-scale", "0.01", "-trace", filepath.Join(dir, "no", "such", "t.trc"))
	if code != 1 {
		t.Fatalf("uncreatable -trace: exit %d, stderr %q", code, stderr)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("failed -trace left %d entries behind", len(entries))
	}
	out := filepath.Join(dir, "t.trc")
	if code, _, stderr = app("-scale", "0.01", "-trace", out); code != 0 {
		t.Fatalf("-trace: exit %d, stderr %q", code, stderr)
	}
	rd, err := trace.OpenReader(out)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if !strings.Contains(stderr, fmt.Sprintf("wrote %d events", rd.EventCount())) {
		t.Fatalf("stderr %q does not report the %d events written", stderr, rd.EventCount())
	}
}

// TestScaleFlagRejectsNonFinite: NaN passes both `v <= 0` and
// `v < MinScale`, so it used to reach the workload generator. Scales
// above 1 are refused as a scenario refuses them: from 736 a grown
// drive has more blocks than the file system can address, and at
// 1e300 the growth factor overflows. Every case fails before a study
// starts.
func TestScaleFlagRejectsNonFinite(t *testing.T) {
	for _, bad := range []string{"NaN", "Inf", "-Inf", "-0.5", "0", "1e300", "1.5"} {
		code, _, stderr := app("-scale", bad)
		if code == 0 || !strings.Contains(stderr, "scale") {
			t.Errorf("-scale %s: exit %d, stderr %q", bad, code, stderr)
		}
	}
	code, _, stderr := app("-sweep", "-seeds", "1", "-scales", "0.01,2")
	if code == 0 || !strings.Contains(stderr, "scale 2 out of range (0, 1]") {
		t.Errorf("-scales 0.01,2: exit %d, stderr %q", code, stderr)
	}
}

// TestProfileFlushedOnError is the profile-corruption fix: an error
// exit (here: a missing scenario file) must still stop and flush the
// CPU profile, leaving a valid gzipped pprof file rather than a
// truncated one.
func TestProfileFlushedOnError(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	code, _, stderr := app("-cpuprofile", prof, "-scenario", filepath.Join(t.TempDir(), "missing.json"))
	if code != 1 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	data, err := os.ReadFile(prof)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("profile not a flushed gzip stream (%d bytes, magic % x)", len(data), data[:min(2, len(data))])
	}
}

// TestSweepStoreCLI drives the run store through the real flags: a
// worker's merged report matches a plain in-memory sweep, a rerun
// against a half-committed directory runs exactly the missing study
// and merges to the same bytes, store flags are refused outside
// -sweep/-scenario or without -out, and the deleted static-shard flags
// fail flag parsing.
func TestSweepStoreCLI(t *testing.T) {
	args := []string{"-sweep", "-seeds", "1-2", "-scales", "0.01"}
	code, single, stderr := app(args...)
	if code != 0 {
		t.Fatalf("plain sweep exit %d, stderr %q", code, stderr)
	}

	dir := t.TempDir()
	code, out, stderr := app(append(args, "-out", dir, "-worker-id", "w1")...)
	if code != 0 {
		t.Fatalf("worker 1 exit %d, stderr %q", code, stderr)
	}
	if out != single {
		t.Fatalf("store CLI merge differs from the in-memory sweep:\n%s\nvs\n%s", out, single)
	}

	// Drop one committed outcome: the rerun resumes implicitly, runs
	// exactly that study, and prints the same merged report.
	outcomes, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	removed := false
	for _, f := range outcomes {
		if base := filepath.Base(f); base != "manifest.json" && !strings.HasPrefix(base, "worker-") {
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
			removed = true
			break
		}
	}
	if !removed {
		t.Fatalf("no outcome file among %v", outcomes)
	}
	code, out, stderr = app(append(args, "-out", dir, "-worker-id", "w2")...)
	if code != 0 {
		t.Fatalf("resume exit %d, stderr %q", code, stderr)
	}
	if out != single {
		t.Fatalf("resumed merge differs from the in-memory sweep:\n%s", out)
	}
	if !strings.Contains(stderr, "worker w2 ran 1 (0 reclaimed), found 1 done") {
		t.Fatalf("resume accounting wrong: %q", stderr)
	}

	if code, _, stderr = app("-sweep", "-worker-id", "w1"); code == 0 || !strings.Contains(stderr, "-worker-id requires -out") {
		t.Fatalf("-worker-id without -out: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr = app("-worker-id", "w1", "-out", t.TempDir()); code == 0 || !strings.Contains(stderr, "-sweep") {
		t.Fatalf("store flags outside -sweep/-scenario: exit %d, stderr %q", code, stderr)
	}
	// The static-shard flags are gone: a script still passing them
	// fails flag parsing instead of running the whole sweep.
	for _, flag := range [][]string{{"-shard", "0/2"}, {"-resume"}} {
		if code, out, _ = app(append(append(args, "-out", t.TempDir()), flag...)...); code != 2 || out != "" {
			t.Fatalf("%v: exit %d, output %q", flag, code, out)
		}
	}
}

// TestWorkStealingCLI drives the lease-based scheduler through the
// real flags: two sequential workers against one -out directory (the
// second finds everything committed), the merged bytes match the
// in-memory sweep, and the missing--out errors are loud and name
// their flags.
func TestWorkStealingCLI(t *testing.T) {
	args := []string{"-sweep", "-seeds", "1-3", "-scales", "0.01"}
	code, single, stderr := app(args...)
	if code != 0 {
		t.Fatalf("plain sweep exit %d, stderr %q", code, stderr)
	}

	dir := t.TempDir()
	code, out, stderr := app(append(args, "-out", dir, "-worker-id", "w1", "-lease-ttl", "5s")...)
	if code != 0 {
		t.Fatalf("worker 1 exit %d, stderr %q", code, stderr)
	}
	if out != single {
		t.Fatalf("lease-mode merge differs from the in-memory sweep:\n%s\nvs\n%s", out, single)
	}
	if !strings.Contains(stderr, "worker w1 ran 3") {
		t.Fatalf("stderr accounting missing the worker line: %q", stderr)
	}
	// A second worker joins late, finds the queue drained, and prints
	// the identical merged report: resume is implicit.
	code, out, stderr = app(append(args, "-out", dir, "-worker-id", "w2")...)
	if code != 0 {
		t.Fatalf("worker 2 exit %d, stderr %q", code, stderr)
	}
	if out != single {
		t.Fatalf("late worker's merge differs:\n%s", out)
	}
	if !strings.Contains(stderr, "found 3 done") {
		t.Fatalf("late worker accounting wrong: %q", stderr)
	}

	// Lease flags without -out are rejected like the other store flags.
	if code, _, stderr = app("-sweep", "-worker-id", "w1"); code == 0 || !strings.Contains(stderr, "-worker-id requires -out") {
		t.Fatalf("-worker-id without -out: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr = app("-sweep", "-lease-ttl", "5s"); code == 0 || !strings.Contains(stderr, "-lease-ttl requires -out") {
		t.Fatalf("-lease-ttl without -out: exit %d, stderr %q", code, stderr)
	}
}

// TestModeFlagConflicts pins the silently-ignored-flag fix: every
// run-shaping flag set outside the modes that read it -- -trace, -fig
// and -table beside -sweep or -scenario, sweep axes beside a single
// study or a scenario, anything beside -list -- is a hard error naming
// both flags (the old behavior wrote nothing and said nothing).
func TestModeFlagConflicts(t *testing.T) {
	cases := []struct {
		args       []string
		flag, mode string
	}{
		{[]string{"-sweep", "-trace", "out.trc"}, "-trace", "-sweep"},
		{[]string{"-sweep", "-fig", "8"}, "-fig", "-sweep"},
		{[]string{"-sweep", "-table", "1"}, "-table", "-sweep"},
		{[]string{"-scenario", "x.json", "-trace", "out.trc"}, "-trace", "-scenario"},
		{[]string{"-scenario", "x.json", "-fig", "8"}, "-fig", "-scenario"},
		{[]string{"-scenario", "x.json", "-table", "1"}, "-table", "-scenario"},
		{[]string{"-sweep", "-scenario", "x.json"}, "-sweep", "-scenario"},
		// -predict walks the twin: no trace, no figure/table rendering,
		// no persistable outcome. Same hard-error rule.
		{[]string{"-predict", "-trace", "out.trc"}, "-trace", "-predict"},
		{[]string{"-predict", "-fig", "8"}, "-fig", "-predict"},
		{[]string{"-predict", "-table", "1"}, "-table", "-predict"},
		{[]string{"-predict", "-out", "runs/x"}, "-out", "-predict"},
		// -list consults only the registries: every run-shaping flag
		// conflicts rather than being silently ignored.
		{[]string{"-list", "-sweep"}, "-sweep", "-list"},
		{[]string{"-list", "-scenario", "x.json"}, "-scenario", "-list"},
		{[]string{"-list", "-predict"}, "-predict", "-list"},
		{[]string{"-list", "-faults", "io-slow"}, "-faults", "-list"},
		{[]string{"-list", "-trace", "out.trc"}, "-trace", "-list"},
		{[]string{"-list", "-fig", "8"}, "-fig", "-list"},
		{[]string{"-list", "-table", "1"}, "-table", "-list"},
		{[]string{"-list", "-out", "runs/x"}, "-out", "-list"},
		{[]string{"-list", "-worker-id", "w1"}, "-worker-id", "-list"},
		{[]string{"-list", "-lease-ttl", "5s"}, "-lease-ttl", "-list"},
		{[]string{"-list", "-seeds", "1-3"}, "-seeds", "-list"},
		{[]string{"-list", "-workers", "2"}, "-workers", "-list"},
		// Sweep axes and the worker count shape -sweep (and -workers
		// -scenario) only; a single study or a scenario's own axes
		// used to drop them without a word.
		{[]string{"-seeds", "1-3"}, "-seeds", "-sweep"},
		{[]string{"-scales", "0.01,0.02"}, "-scales", "-sweep"},
		{[]string{"-workers", "4"}, "-workers", "-sweep"},
		{[]string{"-out", "runs/x"}, "-out", "-sweep"},
		{[]string{"-scenario", "x.json", "-seeds", "1-8"}, "-seeds", "-scenario"},
		{[]string{"-scenario", "x.json", "-scales", "0.5"}, "-scales", "-scenario"},
		{[]string{"-scenario", "x.json", "-scale", "0.5"}, "-scale", "-scenario"},
		{[]string{"-scenario", "x.json", "-faults", "io-slow"}, "-faults", "-scenario"},
		{[]string{"-predict", "-scenario", "x.json", "-seeds", "1-2"}, "-seeds", "-scenario"},
		// The twin walks its studies one after another.
		{[]string{"-predict", "-workers", "3"}, "-workers", "-predict"},
		{[]string{"-predict", "-sweep", "-workers", "3"}, "-workers", "-predict"},
	}
	for _, tc := range cases {
		code, out, stderr := app(tc.args...)
		if code == 0 {
			t.Errorf("%v accepted", tc.args)
			continue
		}
		if !strings.Contains(stderr, tc.flag) || !strings.Contains(stderr, tc.mode) {
			t.Errorf("%v error %q does not name both %s and %s", tc.args, stderr, tc.flag, tc.mode)
		}
		if out != "" {
			t.Errorf("%v printed output despite the conflict:\n%s", tc.args, out)
		}
	}
}

// TestStrayArgumentIsUsageError: a positional argument exits 2
// before any study runs. Flag parsing stops at the first one, so
// "charisma report.txt -scale 0.01" used to run at the default scale.
func TestStrayArgumentIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"report.txt", "-scale", "0.01"},
		{"-scale", "0.01", "report.txt"},
		{"-list", "report.txt"},
	} {
		code, out, stderr := app(args...)
		if code != 2 || out != "" || !strings.Contains(stderr, `unexpected argument "report.txt"`) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 naming the argument", args, code, out, stderr)
		}
	}
}

// TestListCLI pins the -list registry dump: every registry section
// appears in order with the names the other modes actually resolve
// (cluster2026, mesh, fattree and nvme among them), and nothing is
// simulated so stderr stays empty.
func TestListCLI(t *testing.T) {
	code, out, stderr := app("-list")
	if code != 0 {
		t.Fatalf("-list exit %d, stderr %q", code, stderr)
	}
	if stderr != "" {
		t.Fatalf("-list wrote to stderr: %q", stderr)
	}
	// Section headers in order.
	sections := []string{
		"machine presets:", "topologies:", "disk models:",
		"workload archetypes:", "cache policies:", "fault presets:",
	}
	pos := -1
	for _, s := range sections {
		at := strings.Index(out, s)
		if at < 0 {
			t.Fatalf("-list output missing section %q:\n%s", s, out)
		}
		if at < pos {
			t.Fatalf("-list section %q out of order:\n%s", s, out)
		}
		pos = at
	}
	for _, name := range []string{
		"nas", "mini", "cluster2026", // machine presets
		"fattree", "hypercube", "mesh", // topologies
		"cdc760", "nvme", // disk models
		"cfd-sim", "checkpoint", // workload archetypes
		"LRU", "SLRU", // cache policies
		"dying-disk", "io-slow", // fault presets
	} {
		if !strings.Contains(out, "  "+name+"\n") {
			t.Fatalf("-list output missing name %q:\n%s", name, out)
		}
	}
}

// TestPredictCLI pins the -predict mode across its three input
// shapes -- single study, -sweep cross product, -scenario spec --
// plus the replay rejection and the stability property: whatever the
// load, the rendered table never contains Inf or NaN (saturation is
// a flagged cell, not an infinity).
func TestPredictCLI(t *testing.T) {
	finite := func(t *testing.T, out string) {
		t.Helper()
		for _, bad := range []string{"NaN", "Inf", "inf"} {
			if strings.Contains(out, bad) {
				t.Fatalf("prediction renders %s:\n%s", bad, out)
			}
		}
	}

	code, out, stderr := app("-predict", "-scale", "0.01", "-seed", "42")
	if code != 0 {
		t.Fatalf("-predict exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{
		"Analytical twin: per-I/O-node M/G/1 prediction",
		"P-K wait(ms)",
		"headroom",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("-predict output missing %q:\n%s", want, out)
		}
	}
	finite(t, out)
	if _, again, _ := app("-predict", "-scale", "0.01", "-seed", "42"); again != out {
		t.Fatal("-predict is not deterministic across runs")
	}

	code, sweepOut, stderr := app("-predict", "-sweep", "-seeds", "1-2", "-scales", "0.01")
	if code != 0 {
		t.Fatalf("-predict -sweep exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"== seed=1 scale=0.01 ==", "== seed=2 scale=0.01 =="} {
		if !strings.Contains(sweepOut, want) {
			t.Fatalf("-predict -sweep missing the %q header:\n%s", want, sweepOut)
		}
	}
	finite(t, sweepOut)

	// The fig8 corpus scenario's prediction is pinned byte-for-byte:
	// regen with `go test ./cmd/charisma/ -run TestPredictCLI -update`.
	code, scenOut, stderr := app("-predict", "-scenario",
		filepath.Join("..", "..", "testdata", "scenarios", "fig8.json"))
	if code != 0 {
		t.Fatalf("-predict -scenario exit %d, stderr %q", code, stderr)
	}
	finite(t, scenOut)
	golden := filepath.Join("testdata", "predict-fig8.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(scenOut), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regen with -update)", err)
	}
	if scenOut != string(want) {
		t.Fatalf("-predict -scenario fig8 diverged from its golden (regen with -update):\n%s", scenOut)
	}

	// A replay scenario's timing is already recorded: predicting it is
	// a loud error, not an empty table.
	code, out, stderr = app("-predict", "-scenario",
		filepath.Join("..", "..", "testdata", "scenarios", "replay-smoke.json"))
	if code == 0 || !strings.Contains(stderr, "replay") {
		t.Fatalf("-predict on a replay scenario: exit %d, stderr %q", code, stderr)
	}
	if out != "" {
		t.Fatalf("replay rejection printed output:\n%s", out)
	}
}

// TestServeFlagValidation covers the serve subcommand's own flag
// errors: the store directory is mandatory and bad values are exit 2
// before any socket is opened.
func TestServeFlagValidation(t *testing.T) {
	if code, _, stderr := app("serve"); code != 2 || !strings.Contains(stderr, "-out is required") {
		t.Fatalf("serve without -out: exit %d, stderr %q", code, stderr)
	}
	if code, _, _ := app("serve", "-out", t.TempDir(), "-lease-ttl", "-5s"); code != 2 {
		t.Fatal("serve accepted a negative -lease-ttl")
	}
	if code, _, stderr := app("serve", "-out", t.TempDir(), "stray"); code != 2 || !strings.Contains(stderr, "stray") {
		t.Fatalf("serve with a stray argument: exit %d, stderr %q", code, stderr)
	}
	if code, _, _ := app("serve", "-addr", "999.999.999.999:1", "-out", t.TempDir()); code != 1 {
		t.Fatal("serve accepted an unlistenable address")
	}
}

// TestServeMatchesCLI is the acceptance pin for the daemon: a corpus
// scenario served over HTTP returns report bytes identical to the
// one-shot CLI, and resubmitting it is answered from the store as a
// cache hit.
func TestServeMatchesCLI(t *testing.T) {
	specPath := filepath.Join("..", "..", "testdata", "scenarios", "tiny-smoke.json")
	code, cliOut, stderr := app("-scenario", specPath)
	if code != 0 {
		t.Fatalf("CLI scenario exit %d, stderr %q", code, stderr)
	}
	body, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	submit := func() serve.Status {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st serve.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := submit()
	deadline := time.Now().Add(30 * time.Second)
	for st.State != serve.StateDone && st.State != serve.StateFailed {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck at %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.State != serve.StateDone {
		t.Fatalf("job ended %+v", st)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(served) != cliOut {
		t.Fatalf("HTTP report differs from `charisma -scenario` (%d vs %d bytes):\n%s",
			len(served), len(cliOut), served)
	}

	// The identical spec again: coalesced onto the finished job --
	// answered instantly, nothing re-simulated. (The across-restart
	// store-cache path, where Cached is set, is pinned in
	// internal/serve's suite.)
	if st2 := submit(); st2.ID != st.ID || st2.State != serve.StateDone {
		t.Fatalf("resubmission not answered from the finished job: %+v", st2)
	}
}

// TestSignalInterruptReleasesLeases pins the signal-handling fix
// end-to-end, in-process: SIGINT mid-sweep stops the run after its
// in-flight study, releases every lease claim, reports the interrupt,
// and leaves the directory resumable to byte-identical output.
func TestSignalInterruptReleasesLeases(t *testing.T) {
	args := []string{"-sweep", "-seeds", "1-32", "-scales", "0.01", "-workers", "1"}
	code, single, stderr := app(args...)
	if code != 0 {
		t.Fatalf("plain sweep exit %d, stderr %q", code, stderr)
	}

	dir := t.TempDir()
	type result struct {
		code           int
		stdout, stderr string
	}
	resCh := make(chan result, 1)
	go func() {
		code, out, errOut := app(append(args, "-out", dir)...)
		resCh <- result{code, out, errOut}
	}()

	// Wait for the first committed outcome so the signal lands
	// mid-run, then interrupt our own process; appMain's handler turns
	// it into a context cancel instead of process death.
	deadline := time.Now().Add(30 * time.Second)
	for {
		outcomes, _ := filepath.Glob(filepath.Join(dir, "*.json"))
		committed := 0
		for _, p := range outcomes {
			if filepath.Base(p) != "manifest.json" {
				committed++
			}
		}
		if committed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no outcome committed within the deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	res := <-resCh
	if res.code == 0 {
		t.Fatalf("interrupted sweep exited 0; stderr %q", res.stderr)
	}
	if !strings.Contains(res.stderr, "interrupted") || !strings.Contains(res.stderr, dir) {
		t.Fatalf("stderr does not report the interrupt and the resume directory: %q", res.stderr)
	}
	if res.stdout != "" {
		t.Fatalf("interrupted run printed a partial report:\n%s", res.stdout)
	}
	if leases, _ := filepath.Glob(filepath.Join(dir, "*.lease")); len(leases) != 0 {
		t.Fatalf("leases survived the signal: %v", leases)
	}

	// Resume drains the remainder and prints the identical report.
	code, out, stderr := app(append(args, "-out", dir)...)
	if code != 0 {
		t.Fatalf("resume exit %d, stderr %q", code, stderr)
	}
	if out != single {
		t.Fatalf("resumed sweep differs from the uninterrupted run (%d vs %d bytes)", len(out), len(single))
	}
}
