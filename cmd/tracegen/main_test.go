package main

import (
	"bytes"
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
