// Command bench is the repository benchmark: five workloads that drive
// the CHARISMA reproduction through its public packages, an untraced
// pass that yields the gated end-to-end metrics, a traced pass that
// yields per-layer metrics, and a verification pass over every op.
//
// Run it through the wrapper, which builds it first (see README.md):
//
//	python3 bench/run.py --workload nas-trace --seed 1 --seconds 12 --trace 0
//	python3 bench/run.py --seed 1 --out DIR             # every workload
//	python3 bench/run.py -compare base.json head.json   # verdict per metric
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options selects one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	out      string
	// scale, when non-zero, replaces every workload's study scale
	// (tests use it to run the whole program in seconds).
	scale float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run; empty runs every workload, each in its own child process")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload inputs are derived from")
	secs := fs.Float64("seconds", 12, "how long the untraced pass measures")
	traceMode := fs.Int("trace", 0, "1 runs the traced pass for per-layer metrics instead of the untraced pass")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for results.json and the span files")
	compare := fs.Bool("compare", false, "compare two results files against the bounds in ./BENCHMARK.json: -compare base.json head.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two results files")
			return 2
		}
		return runCompare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *traceMode < 0 || *traceMode > 1 || *secs < 0 {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	o.seconds = time.Duration(*secs * float64(time.Second))
	o.traced = *traceMode == 1
	// More Go threads than cores would let the runtime, not the code
	// under test, decide the numbers.
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		fmt.Fprintf(stderr, "bench: GOMAXPROCS=%d exceeds the %d available CPUs; refusing to run\n", p, n)
		return 2
	}
	if o.workload == "" {
		return runAll(o, stdout, stderr)
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rr, err := runWorkload(w, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := appendResults(filepath.Join(o.out, "results.json"), rr); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// A run whose outputs were wrong still exits 0: its summary line
	// reports that, and a non-zero exit means no result.
	printRun(stdout, rr)
	return 0
}

// runAll runs every workload in its own child process, one at a time,
// so no workload's heap paces another's garbage collector.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	trace := "0"
	if o.traced {
		trace = "1"
	}
	// An interrupt kills the running child; Run still waits for it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	status := 0
	for _, w := range workloads {
		if ctx.Err() != nil {
			return 1
		}
		cmd := exec.CommandContext(ctx, exe, "-workload", w.name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds.Seconds()), "-trace", trace, "-out", o.out)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one invocation's outcome, as appended to results.json.
type runRecord struct {
	Workload     string                 `json:"workload"`
	Seed         uint64                 `json:"seed"`
	Seconds      float64                `json:"seconds"`
	Trace        bool                   `json:"trace"`
	Env          envInfo                `json:"env"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Metrics      map[string]metricValue `json:"metrics"`
	OpSeconds    []float64              `json:"op_seconds"`
	SetupSeconds []float64              `json:"setup_seconds"`
	PeakRSSMB    float64                `json:"peak_rss_mb"` // ungated context
	Errors       []string               `json:"errors,omitempty"`
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

// sample is one executed op.
type sample struct {
	seed  uint64
	dur   time.Duration
	alloc uint64
	gcs   uint32
	pause time.Duration
	res   opResult
	err   error
}

// execution carries one invocation's state across its passes.
type execution struct {
	w      workloadDef
	r      runner
	scale  float64
	failed int
	errs   []string
}

func (x *execution) fail(format string, args ...any) {
	x.failed++
	x.errs = append(x.errs, fmt.Sprintf(format, args...))
}

// runOp executes one op; rec, when non-nil, records its spans under op
// index i. A panic is the op's failure, not the benchmark's. Every op
// starts from a collected heap, as a study in a fresh process does, so
// one op's garbage does not pace the next op's collections.
func (x *execution) runOp(rec *Recorder, i int, seed uint64) (s sample) {
	s.seed = seed
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	defer func() {
		if p := recover(); p != nil {
			s.err = fmt.Errorf("panic: %v", p)
		}
		runtime.ReadMemStats(&after)
		s.alloc = after.TotalAlloc - before.TotalAlloc
		s.gcs = after.NumGC - before.NumGC
		s.pause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	}()
	rec.StartOp(i)
	start := time.Now()
	rec.Do("op", func() { s.res, s.err = x.r.op(rec, seed, x.scale) })
	s.dur = time.Since(start)
	return s
}

// runPair runs a seed twice back to back and checks the two runs agree
// on every output and simulated counter.
func (x *execution) runPair(rec *Recorder, i int, seed uint64) []sample {
	pair := []sample{x.runOp(rec, 2*i, seed), x.runOp(rec, 2*i+1, seed)}
	for _, s := range pair {
		if s.err != nil {
			x.fail("seed %d: %v", seed, s.err)
		}
	}
	if pair[0].err == nil && pair[1].err == nil && !sameResult(pair[0].res, pair[1].res) {
		x.fail("seed %d: the two runs disagree", seed)
	}
	return pair
}

func sameResult(a, b opResult) bool {
	if a.digest != b.digest || a.entry != b.entry || len(a.counters) != len(b.counters) {
		return false
	}
	for k, v := range a.counters {
		if w, ok := b.counters[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// verify runs the staged pipeline on a study derived from the
// benchmark seed, which the timed pool does not contain, and checks it
// against the one-call entry point. It is one attempted op, untimed.
func (x *execution) verify(seed uint64) {
	fresh := studySeed(fmt.Sprintf("%s/%d", x.w.name, seed), 0)
	got := x.runOp(nil, 0, fresh)
	if got.err != nil {
		x.fail("seed %d: %v", fresh, got.err)
		return
	}
	want, err := x.r.entry(fresh, x.scale)
	if err != nil {
		x.fail("entry point, seed %d: %v", fresh, err)
	} else if want != got.res.entry {
		x.fail("seed %d: staged pipeline differs from the one-call entry point", fresh)
	}
}

// setup builds the workload's inputs and runs one warm-up op at the
// minimum scale, setupRuns times in fresh directories; the runner of
// the last set-up is kept. The warm-up seed is fixed per workload, so
// set-up does the same work whatever -seed is.
func (x *execution) setup(tmp string) ([]float64, error) {
	warm := studySeed("warm-up/"+x.w.name, 0)
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		dir := filepath.Join(tmp, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		r, err := x.w.setup(dir)
		if err != nil {
			return nil, err
		}
		if _, err := r.op(nil, warm, core.MinScale); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		x.r = r
	}
	return secs, nil
}

func runWorkload(w workloadDef, o options, stderr io.Writer) (*runRecord, error) {
	x := &execution{w: w, scale: w.scale}
	if o.scale > 0 {
		x.scale = o.scale
	}
	tmp := filepath.Join(o.out, "tmp", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(tmp)
	setupSecs, err := x.setup(tmp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rr := &runRecord{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.traced,
		Env: currentEnv(), SetupSeconds: setupSecs,
	}
	var ms map[string]metricValue
	if o.traced {
		ms, rr.OpSeconds, rr.Attempted, err = x.tracedPass(o)
		if err != nil {
			return nil, err
		}
	} else {
		ms, rr.OpSeconds, rr.Attempted = x.timedPass(o)
		ms["setup_s"] = metricValue{median(setupSecs), "s"}
	}
	rr.Metrics = ms
	rr.Failed = min(x.failed, rr.Attempted)
	rr.Correct = x.failed == 0
	rr.Errors = x.errs
	rr.PeakRSSMB = peakRSSMB()
	for _, e := range x.errs {
		fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, e)
	}
	return rr, nil
}

// pass runs the workload's study pool once, starting at the pool
// entry the benchmark seed selects; each study runs twice back to
// back. rec, when non-nil, records the pass's ops as ops 0, 1, ...
func (x *execution) pass(rec *Recorder, seed uint64) []sample {
	var samples []sample
	for j := 0; j < x.w.pool; j++ {
		i := (int(seed%uint64(x.w.pool)) + j) % x.w.pool
		samples = append(samples, x.runPair(rec, j, studySeed(x.w.name, i))...)
	}
	return samples
}

// timedPass is the untraced pass: whole passes over the study pool
// until the measuring time is used up. Every run thus measures the
// same studies, whatever its seed and however fast the host is.
func (x *execution) timedPass(o options) (map[string]metricValue, []float64, int) {
	var samples []sample
	start := time.Now()
	for time.Since(start) < o.seconds || len(samples) == 0 {
		samples = append(samples, x.pass(nil, o.seed)...)
	}
	x.verify(o.seed)

	var durs []float64
	var studies int
	var busy time.Duration
	var alloc uint64
	for _, s := range samples {
		durs = append(durs, s.dur.Seconds())
		studies += s.res.studies
		busy += s.dur
		alloc += s.alloc
	}
	return map[string]metricValue{
		"op_s_p50":        {median(durs), "s"},
		"studies_per_s":   {float64(studies) / busy.Seconds(), "1/s"},
		"alloc_mb_per_op": {float64(alloc) / 1e6 / float64(len(samples)), "MB"},
	}, durs, len(samples) + 1
}

// tracedPass runs one pass over the study pool untraced, for the Go
// runtime statistics and the overhead baseline, then the same pass
// traced for the per-layer metrics. The runtime statistics come from
// the untraced half because the traced half forces collections at
// span boundaries.
func (x *execution) tracedPass(o options) (map[string]metricValue, []float64, int, error) {
	// The runtime's CPU accounting is a snapshot taken at each
	// collection; collecting before and after brackets the pass,
	// including the collections of each op's garbage.
	runtime.GC()
	cpuBefore := readCPUMetrics()
	plain := x.pass(nil, o.seed)
	runtime.GC()
	cpuAfter := readCPUMetrics()

	rec := NewRecorder()
	traced := x.pass(rec, o.seed)
	for i := range traced {
		if plain[i].err == nil && traced[i].err == nil && !sameResult(plain[i].res, traced[i].res) {
			x.fail("seed %d: the traced run differs from the untraced run", traced[i].seed)
		}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, nil, 0, err
	}
	if err := writeSpans(filepath.Join(o.out, x.w.name+".spans.json"), rec.spans); err != nil {
		return nil, nil, 0, err
	}

	ms := layerMetrics(rec, traced)
	var plainDurs, tracedDurs []float64
	var gcs uint32
	var pause time.Duration
	for i := range plain {
		plainDurs = append(plainDurs, plain[i].dur.Seconds())
		tracedDurs = append(tracedDurs, traced[i].dur.Seconds())
		gcs += plain[i].gcs
		pause += plain[i].pause
	}
	n := float64(len(plain))
	ms["runtime.gc_cycles_per_op"] = metricValue{float64(gcs) / n, "count"}
	ms["runtime.gc_pause_ms_per_op"] = metricValue{pause.Seconds() * 1e3 / n, "ms"}
	ms["runtime.gc_cpu_pct"] = metricValue{100 * ratio(cpuAfter.gc-cpuBefore.gc, cpuAfter.total-cpuBefore.total), "%"}
	ms["runtime.peak_rss_mb"] = metricValue{peakRSSMB(), "MB"}
	base := median(plainDurs)
	ms["tracing_overhead_pct"] = metricValue{100 * (median(tracedDurs) - base) / base, "%"}
	x.verify(o.seed)
	return ms, tracedDurs, len(plain) + len(traced) + 1, nil
}

func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = writeChromeTrace(bw, spans)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

type cpuTimes struct{ gc, total float64 }

func readCPUMetrics() cpuTimes {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuTimes{s[0].Value.Float64(), s[1].Value.Float64()}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1e3 // Linux reports KiB
}

// printRun writes one "workload metric value unit" row per metric and
// then, as the last line, the run's JSON summary.
func printRun(w io.Writer, rr *runRecord) {
	names := make([]string, 0, len(rr.Metrics))
	for name := range rr.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rr.Metrics[name]
		fmt.Fprintf(w, "%s %s %v %s\n", rr.Workload, name, m.Value, m.Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rr.Correct, rr.Attempted, rr.Failed, rr.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// resultsFile is results.json: every run made with one -out directory.
type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendResults adds a run to results.json, replacing the file
// atomically.
func appendResults(path string, rr *runRecord) error {
	rf, err := readResults(path)
	if errors.Is(err, os.ErrNotExist) {
		rf, err = &resultsFile{}, nil
	}
	if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, *rr)
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// envInfo is the environment a run measured in.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func currentEnv() envInfo {
	return envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the working directory's .git without
// running git, which would search parent directories of a checkout
// that is not a repository; "unknown" when there is none.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
