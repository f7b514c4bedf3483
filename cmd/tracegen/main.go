// Command tracegen runs a study and writes the collected CHARISMA
// trace to a binary file, without analyzing it. Use traceanal or
// cachesim on the result.
//
// The trace is streamed: each block is spilled to the file as the
// collector receives it (core.RunStudyStreaming), so peak memory is
// bounded by the per-node trace buffers, not the trace length. On any
// write failure -- a full disk, a revoked file -- tracegen removes the
// partial file and exits non-zero, reporting how many bytes landed.
//
// Usage:
//
//	tracegen -o study.trc [-scale 0.1] [-seed 42]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/trace"
)

func main() {
	os.Exit(appMain(os.Args[1:], os.Stdout, os.Stderr))
}

// appMain is the whole command, parameterized for tests: argv is
// os.Args[1:], and the return value is the process exit code.
func appMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "study.trc", "output trace file")
	scale := fs.Float64("scale", 0.1, "study scale in (0, 1]; 1.0 reproduces the full 156-hour study")
	seed := fs.Uint64("seed", 42, "workload seed")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Flag parsing stops at the first positional argument, so every
	// flag after one would be dropped with it.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "tracegen: unexpected argument %q (name the output with -o)\n", fs.Arg(0))
		return 2
	}
	if err := run(stdout, *out, *seed, *scale); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	return 0
}

// run streams the study's trace straight into the output file. A bad
// scale fails before the file is created. On failure the partial file
// is removed so a short write never leaves a truncated trace that a
// later analysis run would trip over.
func run(w io.Writer, out string, seed uint64, scale float64) error {
	if err := core.CheckScale(scale); err != nil {
		return fmt.Errorf("bad -scale: %w", err)
	}
	var res *core.StreamResult
	err := trace.WriteFile(out, func(f *os.File) (err error) {
		res, err = core.RunStudyStreaming(core.DefaultConfig(seed, scale), f)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tracegen: %s: %d bytes, %d blocks, %d events (%.1f simulated hours)\n",
		out, res.TraceBytes, res.TraceBlocks, res.EventCount, res.Horizon.ToSeconds()/3600)
	return nil
}
