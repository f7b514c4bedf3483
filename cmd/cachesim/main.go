// Command cachesim runs the paper's trace-driven cache simulations on
// a CHARISMA trace file: the compute-node cache of Figure 8, the
// I/O-node cache sweep of Figure 9, and the combined configuration of
// Section 4.8.
//
// The trace file is decoded through the streaming reader (index the
// block headers, merge the drift-corrected stream); only the
// postprocessed event sequence is materialized, because the cache
// simulations make several passes over it -- the raw blocks never
// are.
//
// Usage:
//
//	cachesim -fig 8 study.trc
//	cachesim -fig 9 study.trc
//	cachesim -combined study.trc
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/trace"
)

func main() {
	os.Exit(appMain(os.Args[1:], os.Stdout, os.Stderr))
}

// appMain is the whole command, parameterized for tests: argv is
// os.Args[1:], and the return value is the process exit code.
func appMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cachesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "figure to reproduce: 8 or 9")
	combined := fs.Bool("combined", false, "run the combined compute+I/O cache experiment")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 || (*fig == 0 && !*combined) {
		fmt.Fprintln(stderr, "usage: cachesim (-fig 8 | -fig 9 | -combined) <trace file>")
		return 2
	}
	if *fig != 0 && *combined {
		fmt.Fprintln(stderr, "cachesim: -fig conflicts with -combined: pick one experiment")
		return 2
	}
	if *fig != 0 && *fig != 8 && *fig != 9 {
		fmt.Fprintf(stderr, "cachesim: no such experiment: fig %d\n", *fig)
		return 2
	}
	if err := run(stdout, fs.Arg(0), *fig, *combined); err != nil {
		fmt.Fprintln(stderr, "cachesim:", err)
		return 1
	}
	return 0
}

// run loads the trace at path and prints the selected experiment.
func run(w io.Writer, path string, fig int, combined bool) error {
	rd, err := trace.OpenReader(path)
	if err != nil {
		return err
	}
	defer rd.Close()
	events, err := rd.AllEvents()
	if err != nil {
		return err
	}
	header := rd.Header()
	blockBytes := header.BlockSize()

	switch {
	case fig == 8:
		runFig8(w, events, blockBytes)
	case fig == 9:
		if header.IONodes == 0 {
			return fmt.Errorf("%s: trace header has IONodes = 0; Figure 9 stripes blocks over the I/O nodes", path)
		}
		runFig9(w, events, blockBytes, int(header.IONodes))
	case combined:
		runCombined(w, events, blockBytes)
	}
	return nil
}

func runFig8(w io.Writer, events []trace.Event, blockBytes int64) {
	fmt.Fprint(w, core.FormatFig8(core.RunFig8(events, blockBytes)))
}

func runFig9(w io.Writer, events []trace.Event, blockBytes int64, ioNodes int) {
	fmt.Fprint(w, core.FormatFig9(events, blockBytes, ioNodes))
	fmt.Fprintln(w, "\nSensitivity to the number of I/O nodes (LRU, 4000 buffers):")
	fmt.Fprintf(w, "%10s  %10s\n", "I/O nodes", "hit rate")
	for _, n := range []int{1, 2, 5, 10, 15, 20} {
		r := cachesim.IONodeCache(events, blockBytes, n, 4000, cachesim.LRU)
		fmt.Fprintf(w, "%10d  %9.1f%%\n", n, 100*r.Rate())
	}
}

func runCombined(w io.Writer, events []trace.Event, blockBytes int64) {
	fmt.Fprint(w, core.FormatCombined(core.RunCombined(events, blockBytes)))
}
