// Command charisma runs the full CHARISMA reproduction pipeline:
// generate the calibrated synthetic workload, simulate the iPSC/860
// while tracing every instrumented CFS call, postprocess the trace,
// and print the paper's figures and tables.
//
// Usage:
//
//	charisma [-scale 0.1] [-seed 42] [-fig N | -table N | -report] [-trace file]
//	charisma [-faults io-slow] ... / charisma -sweep -faults dying-disk ...
//	charisma -sweep [-seeds 1-32] [-scales 0.05,0.1] [-workers 0]
//	charisma -scenario testdata/scenarios/fig8.json [-workers 0]
//	charisma -sweep|-scenario ... -out runs/full [-worker-id w1] [-lease-ttl 30s]
//	charisma serve -addr :8080 -out runs/cache [-jobs 2] [-queue 16]
//	charisma -list
//
// With -fig or -table only that figure or table is printed; -report
// (the default) prints everything. Figures 1-7 come straight from the
// workload analysis; -fig 8 and -fig 9 run the paper's trace-driven
// cache simulations on the study's own trace. -trace additionally
// writes the raw binary trace for later analysis with traceanal or
// cachesim.
//
// -sweep runs one study per (seed, scale) pair across a pool of
// worker goroutines (one reusable simulation arena per worker; see
// core.RunSweep) and prints the aggregate report with min/median/max
// columns. -cpuprofile and -memprofile capture pprof profiles of
// any mode.
//
// -faults injects a named hardware-degradation preset (internal/
// faults: degraded I/O nodes, disk wear, a slow interconnect, hot-node
// skew) into a single study or every study of a -sweep. The report
// then ends with a "Degradation" section. Scenarios declare faults in
// their spec's "faults" block instead, so -faults conflicts with
// -scenario. Fault injection is deterministic: the same command line
// reproduces the same bytes.
//
// -scenario runs a declarative scenario spec (see internal/scenario
// and the README's "Scenarios" section): machine presets, workload
// mixes by archetype name, seed/scale axes, and trace-driven cache
// experiments, lowered onto the same sweep engine -- or, with a
// "replay" source, the same analysis and cache grid over recorded
// .trc files instead of fresh simulations. -workers overrides the
// spec's worker count; output is byte-identical either way.
//
// -out makes a sweep or scenario persistent and distributed: each
// study's outcome is committed to the run directory as it completes,
// keyed by a configuration fingerprint. Any number of charisma
// processes -- or machines sharing the directory over a network
// filesystem -- drain the same queue: each claims a pending study
// via an atomic lease file (renewed by heartbeat, reclaimed by the
// others if the holder dies for longer than -lease-ttl) and the run
// finishes with no manual resume step. Resume is implicit: re-running
// the same command against the directory executes only what is
// missing, refusing only a manifest mismatch (a different sweep in
// the same directory). Every invocation waits until the whole run is
// drained and prints the merged report, byte-identical to a
// single-process run. -worker-id names the worker in the manifest's
// per-worker throughput counters. See the README's "Distributed runs"
// section.
//
// -list prints every registered name the other modes accept --
// machine presets, interconnect topologies, disk models, workload
// archetypes, cache replacement policies, and fault presets -- in
// stable order and exits. It runs nothing, so combining it with any
// run-shaping flag is a hard error.
//
// Every run-shaping flag is read by some modes only (see flagModes):
// -seeds and -scales by -sweep, -workers and the store flags by
// -sweep and -scenario, -trace, -fig and -table by the single study.
// Setting one that the selected mode does not read is a hard error
// naming both flags, never a silent no-op.
//
// `charisma serve` runs the simulation-as-a-service daemon (see
// internal/serve and the README's "Serving" section): POST a scenario
// spec to /v1/jobs, follow its progress over server-sent events, and
// fetch the finished report -- byte-identical to -scenario output --
// as plain text. The -out directory doubles as a content-addressed
// result cache shared across restarts and server processes.
//
// Every mode shuts down cleanly on SIGINT/SIGTERM: sweeps and
// scenarios stop after their in-flight studies with all store leases
// released (committed outcomes stay resumable), the server drains,
// and profiles flush. A second signal kills immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// All error paths return through appMain so deferred cleanups --
	// in particular pprof.StopCPUProfile -- always run; a bare
	// os.Exit on error used to leave -cpuprofile files corrupt.
	os.Exit(appMain(os.Args[1:], os.Stdout, os.Stderr))
}

// appMain is the whole command, parameterized for tests: argv is
// os.Args[1:], output goes to stdout/stderr, and the return value is
// the process exit code.
func appMain(argv []string, stdout, stderr io.Writer) int {
	// SIGINT/SIGTERM cancel this context instead of killing the
	// process outright: store runs release their lease claims, the
	// server drains, and the deferred profile stop below still flushes
	// (signals used to corrupt -cpuprofile files exactly the way bare
	// error exits once did). After the first signal the handler is
	// unregistered, so a second signal falls back to the default
	// disposition and kills a run that refuses to wind down.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals()
	}()

	if len(argv) > 0 && argv[0] == "serve" {
		return serveMain(ctx, argv[1:], stdout, stderr)
	}

	fs := flag.NewFlagSet("charisma", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.1, "study scale in (0, 1]; 1.0 reproduces the full 156-hour study")
	seed := fs.Uint64("seed", 42, "workload seed")
	fig := fs.Int("fig", 0, "print only figure N (1-9; 8 and 9 run the cache simulations)")
	table := fs.Int("table", 0, "print only table N (1-3)")
	report := fs.Bool("report", false, "print the full report (default when no -fig/-table)")
	traceOut := fs.String("trace", "", "also write the raw trace to this file")
	sweep := fs.Bool("sweep", false, "run a parallel study sweep over -seeds x -scales")
	predict := fs.Bool("predict", false, "print the analytical twin's instant M/G/1 queueing prediction instead of simulating")
	list := fs.Bool("list", false, "print every registered name (machine presets, topologies, disk models, workload archetypes, cache policies, fault presets) and exit")
	faultsPreset := fs.String("faults", "", "inject a named fault preset into the study or sweep: "+strings.Join(faults.PresetNames(), ", "))
	scenarioPath := fs.String("scenario", "", "run the declarative scenario spec at this path")
	seeds := fs.String("seeds", "", "sweep seeds: values and ranges, e.g. '3,1-5' (default: -seed)")
	scales := fs.String("scales", "", "sweep scales: comma-separated list (default: -scale)")
	workers := fs.Int("workers", 0, "sweep worker goroutines; 0 = GOMAXPROCS")
	outDir := fs.String("out", "", "persist sweep/scenario outcomes to this run directory (distributed; rerun to resume)")
	workerID := fs.String("worker-id", "", "worker identity for distributed runs (requires -out; default host-pid)")
	leaseTTL := fs.Duration("lease-ttl", 0, "work-claim lease time-to-live before other workers reclaim (requires -out; default 30s)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	// Flag parsing stops at the first positional argument, so every
	// flag after one would be dropped with it.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "charisma: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	stop, err := startProfiles(*cpuProfile, *memProfile, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "charisma:", err)
		return 1
	}
	// stop flushes and closes the profiles; it must run on every exit
	// path, including errors, or the profile files are corrupt.
	defer stop()

	if err := run(ctx, appConfig{
		scale: *scale, seed: *seed, fig: *fig, table: *table, report: *report,
		traceOut: *traceOut, sweep: *sweep, predict: *predict, list: *list, scenarioPath: *scenarioPath,
		faultsPreset: *faultsPreset,
		seeds:        *seeds, scales: *scales, workers: *workers,
		outDir: *outDir, workerID: *workerID, leaseTTL: *leaseTTL,
		set: set,
	}, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "charisma:", err)
		return 1
	}
	return 0
}

// appConfig is the parsed flag set.
type appConfig struct {
	scale        float64
	seed         uint64
	fig, table   int
	report       bool
	traceOut     string
	sweep        bool
	predict      bool
	list         bool
	scenarioPath string
	faultsPreset string
	seeds        string
	scales       string
	workers      int
	outDir       string
	workerID     string
	leaseTTL     time.Duration
	set          map[string]bool // flags given on the command line
}

// run dispatches to the selected mode. Every failure returns an
// error; nothing below this point may exit the process. ctx is
// cancelled by SIGINT/SIGTERM; every mode winds down cleanly on it.
func run(ctx context.Context, cfg appConfig, stdout, stderr io.Writer) error {
	// Reject a garbage -scale before anything else.
	if err := core.CheckScale(cfg.scale); err != nil {
		return fmt.Errorf("bad -scale: %w", err)
	}
	if err := checkModeFlags(cfg); err != nil {
		return err
	}
	if cfg.list {
		return runList(stdout)
	}
	store, useStore, err := parseStore(cfg)
	if err != nil {
		return err
	}
	var faultsCfg *faults.Config
	if cfg.faultsPreset != "" {
		fc, err := faults.Preset(cfg.faultsPreset)
		if err != nil {
			return err
		}
		faultsCfg = &fc
	}
	// Housekeeping notices (stale-file sweeps, lease reclaims) share
	// the timing channel; stdout stays deterministic report text.
	store.Log = stderr
	switch {
	case cfg.predict:
		return runPredict(ctx, stdout, cfg, faultsCfg)
	case cfg.scenarioPath != "":
		return runScenario(ctx, stdout, stderr, cfg.scenarioPath, cfg.workers, store, useStore)
	case cfg.sweep:
		return runSweep(ctx, stdout, stderr, cfg, faultsCfg, store, useStore)
	}
	return runStudy(ctx, stdout, stderr, cfg, faultsCfg)
}

// Modes a flag can be read in: the single study, -sweep and -scenario.
// -list reads no run-shaping flag, and -predict swaps the traced
// simulation of any of the three for the analytical twin.
const (
	modeStudy = 1 << iota
	modeSweep
	modeScenario
)

// flagModes lists, for every run-shaping flag, the modes that read it
// and whether -predict still does. checkModeFlags refuses a flag set
// where the command line's mode does not read it, with an error naming
// both flags: the CLI never drops a flag silently.
var flagModes = []struct {
	flag    string
	modes   int
	predict bool
	readers string // the modes, as the error names them
}{
	{"sweep", modeSweep, true, "-sweep"},
	{"scenario", modeScenario, true, "-scenario"},
	{"predict", modeStudy | modeSweep | modeScenario, true, ""},
	{"seed", modeStudy | modeSweep, true, "the single study and -sweep"},
	{"scale", modeStudy | modeSweep, true, "the single study and -sweep"},
	{"seeds", modeSweep, true, "-sweep"},
	{"scales", modeSweep, true, "-sweep"},
	{"faults", modeStudy | modeSweep, true, `the single study and -sweep (a scenario declares faults in its "faults" block)`},
	{"trace", modeStudy, false, "the single-study mode"},
	{"fig", modeStudy, false, "the single-study mode"},
	{"table", modeStudy, false, "the single-study mode"},
	{"workers", modeSweep | modeScenario, false, "-sweep and -scenario"},
	{"out", modeSweep | modeScenario, false, "-sweep and -scenario"},
	{"worker-id", modeSweep | modeScenario, false, "-sweep and -scenario"},
	{"lease-ttl", modeSweep | modeScenario, false, "-sweep and -scenario"},
}

// checkModeFlags enforces flagModes on the flags set on the command
// line, after refusing the one pair of modes that cannot combine.
func checkModeFlags(cfg appConfig) error {
	if cfg.sweep && cfg.scenarioPath != "" {
		return errors.New("-sweep conflicts with -scenario: pick one mode (a scenario declares its own axes)")
	}
	mode, bit := "the single-study mode", modeStudy
	switch {
	case cfg.list:
		mode, bit = "-list", 0
	case cfg.sweep:
		mode, bit = "-sweep", modeSweep
	case cfg.scenarioPath != "":
		mode, bit = "-scenario", modeScenario
	}
	for _, f := range flagModes {
		switch {
		case !cfg.set[f.flag]:
		case cfg.list:
			return fmt.Errorf("-%s conflicts with -list: listing the registries runs nothing", f.flag)
		case cfg.predict && !f.predict:
			return fmt.Errorf("-%s conflicts with -predict: the analytical twin walks each study in turn and runs no traced simulation", f.flag)
		case f.modes&bit == 0:
			return fmt.Errorf("-%s conflicts with %s: it applies only to %s", f.flag, mode, f.readers)
		}
	}
	return nil
}

// runList prints every name registry the pipeline consults, one
// section per registry, each in its registry's fixed order (machine
// presets, workload archetypes and cache policies list in table
// order, the rest sorted). Scenario authors read this instead of the
// source to learn what a machines axis entry, workload mix, cache
// policy grid, or -faults flag may name; CI smokes it to catch a
// section that went missing.
func runList(stdout io.Writer) error {
	sections := []struct {
		title string
		names []string
	}{
		{"machine presets", machine.PresetNames()},
		{"topologies", topo.Names()},
		{"disk models", disk.DriveNames()},
		{"workload archetypes", workload.ArchetypeNames()},
		{"cache policies", cachesim.PolicyNames()},
		{"fault presets", faults.PresetNames()},
	}
	for i, s := range sections {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "%s:\n", s.title)
		for _, n := range s.names {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
	}
	return nil
}

// runStudy is the single-study mode: the paper's figures and tables,
// plus the Figure 8/9 cache simulations on the study's own trace.
// The study itself is one indivisible simulation, so a signal does
// not pause it mid-event; instead the study is abandoned and the
// process exits promptly with its profiles flushed (the whole point
// of handling the signal) rather than running out a possibly
// hours-long horizon first.
func runStudy(ctx context.Context, stdout, stderr io.Writer, cfg appConfig, faultsCfg *faults.Config) error {
	studyCfg := core.DefaultConfig(cfg.seed, cfg.scale)
	studyCfg.Faults = faultsCfg
	var res *core.Result
	study := func() error {
		resCh := make(chan *core.Result, 1)
		go func() { resCh <- core.RunStudy(studyCfg) }()
		select {
		case res = <-resCh:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("interrupted: %w", ctx.Err())
		}
	}
	if cfg.traceOut == "" {
		if err := study(); err != nil {
			return err
		}
	} else {
		// The study runs inside WriteFile, so a path that cannot be
		// created fails before any simulating, and an interrupted
		// study's empty file is removed with the partial-trace rule.
		err := trace.WriteFile(cfg.traceOut, func(f *os.File) error {
			if err := study(); err != nil {
				return err
			}
			_, err := res.Trace.WriteTo(f)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "charisma: wrote %d events to %s\n", len(res.Events), cfg.traceOut)
	}

	out, err := selectSection(res, cfg.fig, cfg.table)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, out)
	fmt.Fprintf(stdout, "\nInstrumentation (Section 3): %d records in %d messages (%.1f%% of one-per-record); %d disk ops\n",
		res.TraceRecords, res.TraceMessages,
		100*float64(res.TraceMessages)/float64(max64(res.TraceRecords, 1)),
		res.DiskOps)
	return nil
}

// runPredict is the analytical-twin mode: instead of running the
// traced study, it walks the workload on the machine with tracing off
// and prints the per-I/O-node M/G/1 prediction for every study the
// flags describe -- the single study, the -sweep seed/scale cross
// product, or each study of a -scenario spec. Output is deterministic
// and, like every twin rendering, free of Inf and NaN: saturation is a
// flagged "sat" cell, never an infinite wait.
func runPredict(ctx context.Context, stdout io.Writer, cfg appConfig, faultsCfg *faults.Config) error {
	var specs []core.StudySpec
	switch {
	case cfg.scenarioPath != "":
		spec, err := scenario.Load(cfg.scenarioPath)
		if err != nil {
			return err
		}
		if spec.IsReplay() {
			return errors.New("-predict cannot run a replay scenario: a recorded trace already carries its timing, so there is nothing to predict")
		}
		specs = core.ScenarioSpecs(spec)
	case cfg.sweep:
		seedList, err := parseSeeds(cfg.seeds, cfg.seed)
		if err != nil {
			return err
		}
		scaleList, err := parseScales(cfg.scales, cfg.scale)
		if err != nil {
			return err
		}
		specs = core.CrossSpecs(seedList, scaleList)
		for i := range specs {
			specs[i].Config.Faults = faultsCfg
		}
	default:
		studyCfg := core.DefaultConfig(cfg.seed, cfg.scale)
		studyCfg.Faults = faultsCfg
		specs = []core.StudySpec{{Config: studyCfg}}
	}
	for i, ss := range specs {
		// Each walk is short, but a sweep of them is worth interrupting
		// between studies.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("interrupted: %w", err)
		}
		if len(specs) > 1 {
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			fmt.Fprintf(stdout, "== %s ==\n", ss.Label)
		}
		fmt.Fprint(stdout, core.Predict(ss.Config).Format())
	}
	return nil
}

// startProfiles starts the CPU profile and returns the cleanup that
// stops it and writes the heap profile. The cleanup never exits the
// process: profile trouble on the way out is reported to stderr and
// the already-chosen exit code stands.
func startProfiles(cpuPath, memPath string, stderr io.Writer) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(stderr, "charisma:", err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(stderr, "charisma:", err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "charisma:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "charisma:", err)
		}
	}, nil
}

// parseStore turns the -out/-worker-id/-lease-ttl flags into a store
// config. Resume is implicit: rerunning against a directory executes
// only what is missing, and the library refuses only a manifest
// mismatch.
func parseStore(cfg appConfig) (core.StoreConfig, bool, error) {
	if cfg.outDir == "" {
		switch {
		case cfg.workerID != "":
			return core.StoreConfig{}, false, errors.New("-worker-id requires -out")
		case cfg.leaseTTL != 0:
			return core.StoreConfig{}, false, errors.New("-lease-ttl requires -out")
		}
		return core.StoreConfig{}, false, nil
	}
	if cfg.leaseTTL < 0 {
		return core.StoreConfig{}, false, fmt.Errorf("bad -lease-ttl %v (want a positive duration)", cfg.leaseTTL)
	}
	return core.StoreConfig{Dir: cfg.outDir, WorkerID: cfg.workerID, LeaseTTL: cfg.leaseTTL}, true, nil
}

// runScenario loads, validates, and runs a declarative scenario,
// printing the deterministic report on stdout and timing on stderr.
// With a store, this process drains the pending studies alongside any
// other workers, and the merged report prints once every study's
// outcome file exists.
func runScenario(ctx context.Context, stdout, stderr io.Writer, path string, workers int, store core.StoreConfig, useStore bool) error {
	spec, err := scenario.Load(path)
	if err != nil {
		return err
	}
	if workers != 0 {
		spec.Workers = workers
	}
	if !useStore {
		res, err := core.RunScenario(ctx, spec)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Format())
		fmt.Fprintf(stderr, "charisma: scenario %s: %d studies on %d workers in %v\n",
			spec.Name, len(res.Sweep.Outcomes), res.Sweep.Workers, res.Sweep.Elapsed.Round(1e6))
		return nil
	}
	run, err := core.RunScenarioStore(ctx, spec, store)
	if err != nil {
		return err
	}
	reportStoreRun(stderr, "scenario "+spec.Name, run.Run, len(run.Merge.Missing), len(run.Merge.Result.Outcomes))
	if run.Run.Err != nil {
		return interrupted(run.Run.Err, store.Dir)
	}
	if run.Result == nil {
		return nil
	}
	fmt.Fprint(stdout, run.Result.Format())
	return nil
}

// interrupted describes a store run stopped by a signal: leases are
// already released and committed outcomes resume on the next run.
func interrupted(cause error, dir string) error {
	return fmt.Errorf("interrupted (%v): leases released, committed outcomes kept; rerun with -out %s to resume", cause, dir)
}

// serveMain is the `charisma serve` subcommand: it binds the HTTP
// daemon to -addr, backs it with the content-addressed run store at
// -out, and runs until ctx is cancelled by SIGINT/SIGTERM. Shutdown
// is graceful: intake stops (new submissions get 503), in-flight
// studies finish and commit, leases release, and open SSE streams
// receive their terminal events before the listener closes -- all
// within the -drain budget.
func serveMain(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("charisma serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address, host:port")
	outDir := fs.String("out", "", "run-store directory backing the result cache (required)")
	jobs := fs.Int("jobs", 2, "jobs simulating concurrently")
	queue := fs.Int("queue", 16, "queued jobs accepted beyond the executing ones before 429")
	leaseTTL := fs.Duration("lease-ttl", 0, "store work-claim lease time-to-live (default 30s)")
	drain := fs.Duration("drain", 30*time.Second, "shutdown budget for in-flight jobs to finish")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "charisma serve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *outDir == "" {
		fmt.Fprintln(stderr, "charisma serve: -out is required (the run directory doubles as the result cache)")
		return 2
	}
	if *leaseTTL < 0 {
		fmt.Fprintf(stderr, "charisma serve: bad -lease-ttl %v (want a positive duration)\n", *leaseTTL)
		return 2
	}

	srv, err := serve.New(serve.Config{
		Dir:      *outDir,
		Jobs:     *jobs,
		Queue:    *queue,
		LeaseTTL: *leaseTTL,
		Log:      stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "charisma serve:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "charisma serve:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stderr, "charisma serve: listening on %s (store %s, %d jobs, queue %d)\n",
		ln.Addr(), *outDir, *jobs, *queue)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener failed underneath us; the jobs are still worth
		// draining so committed outcomes stay resumable.
		fmt.Fprintln(stderr, "charisma serve:", err)
		srv.Shutdown(context.Background())
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintf(stderr, "charisma serve: signal received; draining (budget %v)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Order matters: drain the job engine first so open SSE streams see
	// their terminal events, then close the HTTP side, which waits for
	// those streams to unwind.
	srv.Shutdown(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		httpSrv.Close()
		fmt.Fprintln(stderr, "charisma serve:", err)
		return 1
	}
	fmt.Fprintln(stderr, "charisma serve: drained; all leases released")
	return 0
}

// runSweep executes the multi-study mode and prints the aggregate
// report (deterministic) on stdout and timing (not) on stderr. With
// a store the same distributed, resumable protocol as scenarios
// applies.
func runSweep(ctx context.Context, stdout, stderr io.Writer, cfg appConfig, faultsCfg *faults.Config, store core.StoreConfig, useStore bool) error {
	seedList, err := parseSeeds(cfg.seeds, cfg.seed)
	if err != nil {
		return err
	}
	scaleList, err := parseScales(cfg.scales, cfg.scale)
	if err != nil {
		return err
	}
	specs := core.CrossSpecs(seedList, scaleList)
	if faultsCfg != nil {
		// Every study of the sweep runs on the same degraded machine;
		// the store fingerprint covers the faults, so a faulted run
		// directory never aliases a healthy one.
		for i := range specs {
			specs[i].Config.Faults = faultsCfg
		}
	}
	sweepCfg := core.SweepConfig{Specs: specs, Workers: cfg.workers}
	if !useStore {
		res := core.RunSweep(ctx, sweepCfg)
		if res.Err != nil {
			return res.Err
		}
		fmt.Fprint(stdout, res.Format())
		fmt.Fprintf(stderr, "charisma: %d studies on %d workers in %v (%.2f studies/s)\n",
			len(res.Outcomes), res.Workers, res.Elapsed.Round(1e6),
			float64(len(res.Outcomes))/res.Elapsed.Seconds())
		return nil
	}
	run, err := core.RunSweepStore(ctx, sweepCfg, store)
	if err != nil {
		return err
	}
	merge, err := core.MergeSweepStore(sweepCfg, store)
	if err != nil {
		return err
	}
	reportStoreRun(stderr, "sweep", run, len(merge.Missing), len(specs))
	if run.Err != nil {
		return interrupted(run.Err, store.Dir)
	}
	if len(merge.Missing) > 0 {
		return nil
	}
	fmt.Fprint(stdout, merge.Result.Format())
	return nil
}

// reportStoreRun prints one invocation's accounting to stderr: what
// it ran, what was already committed, and whether the merged report
// is ready.
func reportStoreRun(stderr io.Writer, what string, run *core.StoreRun, missing, total int) {
	fmt.Fprintf(stderr, "charisma: %s: worker %s ran %d (%d reclaimed), found %d done, in %v; %d/%d outcomes committed\n",
		what, run.Worker.WorkerID, len(run.Ran), run.Reclaims, len(run.Skipped), run.Elapsed.Round(1e6), total-missing, total)
	if missing > 0 {
		fmt.Fprintf(stderr, "charisma: %d studies still pending (run cancelled before the queue drained); merged report withheld\n", missing)
	}
}

// parseSeeds understands comma-separated values and "a-b" ranges,
// freely mixed ("3,1-5"); empty means the single -seed value.
func parseSeeds(spec string, fallback uint64) ([]uint64, error) {
	if spec == "" {
		return []uint64{fallback}, nil
	}
	const maxSeeds = 1 << 20
	var out []uint64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
			b, err2 := strconv.ParseUint(strings.TrimSpace(hi), 10, 64)
			if err1 != nil || err2 != nil || b < a {
				return nil, fmt.Errorf("bad seed range %q in %q", part, spec)
			}
			if b-a >= maxSeeds || uint64(len(out))+(b-a) >= maxSeeds {
				return nil, fmt.Errorf("seed range %q in %q too large", part, spec)
			}
			for s := a; s <= b; s++ {
				out = append(out, s)
			}
			continue
		}
		s, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q in %q", part, spec)
		}
		out = append(out, s)
	}
	return out, nil
}

// parseScales understands comma lists; empty means the single -scale
// value. Every scale must pass core.CheckScale, as -scale does.
func parseScales(spec string, fallback float64) ([]float64, error) {
	if spec == "" {
		return []float64{fallback}, nil
	}
	var out []float64
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad scale %q in -scales %q", part, spec)
		}
		if err := core.CheckScale(v); err != nil {
			return nil, fmt.Errorf("bad -scales %q: %w", spec, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// selectSection renders the requested slice of the study: figures
// 1-7 and tables 1-3 from the analysis report, figures 8-9 from the
// trace-driven cache simulations on the study's own event stream.
func selectSection(res *core.Result, fig, table int) (string, error) {
	r := res.Report
	switch {
	case fig == 1:
		return r.FormatFig1(), nil
	case fig == 2:
		return r.FormatFig2(), nil
	case fig == 3:
		return r.FormatFig3(), nil
	case fig == 4:
		return r.FormatFig4(), nil
	case fig == 5:
		return r.FormatFig5(), nil
	case fig == 6:
		return r.FormatFig6(), nil
	case fig == 7:
		return r.FormatFig7(), nil
	case fig == 8:
		return core.FormatFig8(core.RunFig8(res.Events, res.BlockBytes())), nil
	case fig == 9:
		return core.FormatFig9(res.Events, res.BlockBytes(), int(res.Header.IONodes)), nil
	case table == 1:
		return r.FormatTable1(), nil
	case table == 2:
		return r.FormatTable2(), nil
	case table == 3:
		return r.FormatTable3(), nil
	case fig != 0 || table != 0:
		return "", fmt.Errorf("no such figure/table (fig=%d table=%d; figures 1-9, tables 1-3)", fig, table)
	default:
		return r.Format(), nil
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
