package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestRunWritesReadableTrace: the happy path produces a trace the
// streaming reader accepts, and reports its true size.
func TestRunWritesReadableTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.trc")
	var msg bytes.Buffer
	if err := run(&msg, out, 42, 0.01); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.OpenReader(out)
	if err != nil {
		t.Fatalf("tracegen output unreadable: %v", err)
	}
	defer rd.Close()
	if rd.EventCount() == 0 || rd.NumBlocks() == 0 {
		t.Fatalf("empty trace: %d events, %d blocks", rd.EventCount(), rd.NumBlocks())
	}
	fi, err := os.Stat(out)
	if err != nil {
		t.Fatal(err)
	}
	// The summary's byte count must be the true file size:
	// "tracegen: <path>: <n> bytes, ...".
	fields := strings.Fields(msg.String())
	var reported int64 = -1
	for i, f := range fields {
		if f == "bytes," && i > 0 {
			v, err := strconv.ParseInt(fields[i-1], 10, 64)
			if err != nil {
				t.Fatalf("summary line malformed: %q", msg.String())
			}
			reported = v
		}
	}
	if reported != fi.Size() {
		t.Fatalf("summary %q reports %d bytes, file has %d", msg.String(), reported, fi.Size())
	}
}

// TestRunErrorPaths: an uncreatable path errors without panicking and
// creates nothing. The clean-up of a partial or non-regular output is
// trace.WriteFile's, tested in internal/trace.
func TestRunErrorPaths(t *testing.T) {
	dir := t.TempDir()
	var msg bytes.Buffer
	if err := run(&msg, filepath.Join(dir, "no", "such", "dir", "t.trc"), 1, 0.01); err == nil {
		t.Fatal("uncreatable path accepted")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("failed run left %d entries behind", len(entries))
	}
}

// TestRunRejectsScale: a scale above 1 (or not finite and positive)
// fails before the output is created or a study starts.
func TestRunRejectsScale(t *testing.T) {
	for _, bad := range []float64{1e300, 1.5, 0, math.NaN(), math.Inf(1)} {
		out := filepath.Join(t.TempDir(), "t.trc")
		var msg bytes.Buffer
		err := run(&msg, out, 1, bad)
		if err == nil || !strings.Contains(err.Error(), "out of range (0, 1]") {
			t.Errorf("scale %v: %v, want out of range", bad, err)
		}
		if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
			t.Errorf("scale %v left %s behind", bad, out)
		}
	}
}

// TestStrayArgumentIsUsageError: a positional argument exits 2 before
// any study runs and creates no file. Flag parsing stops at the first
// positional argument, so "tracegen out.trc -scale 0.01" used to drop
// both and write study.trc at scale 0.1.
func TestStrayArgumentIsUsageError(t *testing.T) {
	for _, tail := range [][]string{
		{"out.trc", "-scale", "0.01"},
		{"-scale", "0.01", "out.trc"},
	} {
		dir := t.TempDir()
		argv := append([]string{"-o", filepath.Join(dir, "t.trc")}, tail...)
		var stdout, stderr bytes.Buffer
		if code := appMain(argv, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", argv, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), `unexpected argument "out.trc"`) {
			t.Errorf("%q: stderr %q does not name the argument", argv, stderr.String())
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 || stdout.Len() != 0 {
			t.Errorf("%q: left %d files and printed %q", argv, len(entries), stdout.String())
		}
	}
}
