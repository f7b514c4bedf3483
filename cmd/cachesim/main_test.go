package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the cachesim golden over the shared smoke trace
// (the trace itself is owned by cmd/traceanal's -update):
//
//	go test -run TestSmokeCombinedGolden -update ./cmd/cachesim/
var update = flag.Bool("update", false, "rewrite testdata/traces/smoke.cachesim.golden")

const (
	smokeTrc    = "../../testdata/traces/smoke.trc"
	smokeGolden = "../../testdata/traces/smoke.cachesim.golden"
)

// TestSmokeCombinedGolden pins the combined cache experiment over the
// checked-in smoke trace, byte for byte: the replay-conformance CI
// step runs the same command against the same golden.
func TestSmokeCombinedGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, smokeTrc, 0, true); err != nil {
		t.Fatal(err)
	}

	if *update {
		if err := os.WriteFile(smokeGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", smokeGolden, out.Len())
		return
	}
	want, err := os.ReadFile(smokeGolden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("cachesim -combined output diverged from %s; regenerate with -update if intentional", smokeGolden)
	}
}

// TestFigModesRun: both figure experiments run over the smoke trace
// without error and produce their headers.
func TestFigModesRun(t *testing.T) {
	var fig8, fig9 bytes.Buffer
	if err := run(&fig8, smokeTrc, 8, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fig8.Bytes(), []byte("Figure 8")) {
		t.Fatal("fig 8 output missing header")
	}
	if err := run(&fig9, smokeTrc, 9, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fig9.Bytes(), []byte("Figure 9")) {
		t.Fatal("fig 9 output missing header")
	}
}

// TestRunErrors: bad input is an error, not a panic.
func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, filepath.Join(t.TempDir(), "missing.trc"), 0, true); err == nil {
		t.Fatal("missing file accepted")
	}
}

// craftedTrace writes a copy of the smoke trace with header bytes
// [from, to) zeroed and returns its path.
func craftedTrace(t *testing.T, from, to int) string {
	t.Helper()
	data, err := os.ReadFile(smokeTrc)
	if err != nil {
		t.Fatal(err)
	}
	clear(data[from:to])
	path := filepath.Join(t.TempDir(), "crafted.trc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCraftedHeaderZeroBlockBytes: a header with no block size falls
// back to 4096 bytes, as the analyzer does, so every experiment runs
// and the combined one still matches the smoke golden.
func TestCraftedHeaderZeroBlockBytes(t *testing.T) {
	path := craftedTrace(t, 14, 18)
	for _, fig := range []int{8, 9} {
		var out bytes.Buffer
		if err := run(&out, path, fig, false); err != nil {
			t.Fatalf("-fig %d: %v", fig, err)
		}
	}
	var out bytes.Buffer
	if err := run(&out, path, 0, true); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(smokeGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("-combined on a zero-block-size header diverged from the smoke golden")
	}
}

// TestCraftedHeaderZeroIONodes: Figure 9 stripes blocks over the
// header's I/O nodes, so a header with none is an error naming the
// field; the experiments that do not read it still run.
func TestCraftedHeaderZeroIONodes(t *testing.T) {
	path := craftedTrace(t, 12, 14)
	var out bytes.Buffer
	err := run(&out, path, 9, false)
	if err == nil || !strings.Contains(err.Error(), "IONodes") {
		t.Fatalf("-fig 9 error = %v, want one naming IONodes", err)
	}
	if err := run(&out, path, 8, false); err != nil {
		t.Fatalf("-fig 8: %v", err)
	}
	if err := run(&out, path, 0, true); err != nil {
		t.Fatalf("-combined: %v", err)
	}
}

// TestModeConflictsAreUsageErrors: -fig with -combined names one
// experiment too many and exits 2 without running either, as a
// missing mode, a missing or second trace file and an unknown figure
// do. The pair used to print Figure 8 only.
func TestModeConflictsAreUsageErrors(t *testing.T) {
	for _, argv := range [][]string{
		{"-fig", "8", "-combined", smokeTrc},
		{"-combined", "-fig", "9", smokeTrc},
		{smokeTrc},
		{"-combined"},
		{"-combined", smokeTrc, smokeTrc},
		{"-fig", "7", smokeTrc},
	} {
		var stdout, stderr bytes.Buffer
		if code := appMain(argv, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, printed %d bytes; want exit 2 and no output", argv, code, stdout.Len())
		}
	}
	var stdout, stderr bytes.Buffer
	appMain([]string{"-fig", "8", "-combined", smokeTrc}, &stdout, &stderr)
	if !strings.Contains(stderr.String(), "-fig conflicts with -combined") {
		t.Errorf("stderr %q does not name the conflict", stderr.String())
	}
}
