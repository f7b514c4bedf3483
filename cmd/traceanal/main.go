// Command traceanal analyzes a CHARISMA trace file produced by
// tracegen (or charisma -trace): it postprocesses the blocks
// (clock-drift correction and chronological merging) and prints the
// paper's figures and tables.
//
// The trace is never materialized: the reader indexes the file's
// block headers (~40 bytes per block, ~1% of the file), then streams
// the drift-corrected, time-merged event sequence -- one decoded
// block per compute node in memory at a time -- into the incremental
// analyzer, so traces far larger than memory analyze in a footprint
// that grows only with that ~1% index, never with the event count.
//
// Usage:
//
//	traceanal [-raw] study.trc
//
// With -raw, the drift correction is skipped (an ablation showing what
// the correction buys): events are merged on their raw local-clock
// timestamps.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/trace"
)

func main() {
	raw := flag.Bool("raw", false, "skip clock-drift correction")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceanal [-raw] <trace file>")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), *raw); err != nil {
		fmt.Fprintln(os.Stderr, "traceanal:", err)
		os.Exit(1)
	}
}

// run streams the trace at path through the analyzer and writes the
// report to w.
func run(w io.Writer, path string, raw bool) error {
	rd, err := trace.OpenReader(path)
	if err != nil {
		return err
	}
	defer rd.Close()

	o := analysis.NewOnline(rd.Header())
	stream := rd.Events
	if raw {
		stream = rd.RawEvents
	}
	if err := stream(func(ev *trace.Event) error {
		o.Observe(ev)
		return nil
	}); err != nil {
		return err
	}
	report := o.Finish(0) // horizon: the last event's timestamp

	h := rd.Header()
	fmt.Fprintf(w, "trace: %d compute nodes, %d I/O nodes, %d B blocks, seed %d, %d events\n\n",
		h.ComputeNodes, h.IONodes, h.BlockBytes, h.Seed, rd.EventCount())
	fmt.Fprint(w, report.Format())
	return nil
}
