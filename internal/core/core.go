// Package core is the top-level CHARISMA reproduction API: it wires
// the simulated iPSC/860, the calibrated synthetic workload, the
// tracing pipeline, the workload analysis, and the trace-driven cache
// simulations into single-call studies.
//
// A Study reproduces the paper end to end:
//
//	result := core.RunStudy(core.DefaultConfig(42))
//	fmt.Print(result.Report.Format())
//
// The cache experiments (Figures 8 and 9, and the combined
// configuration of Section 4.8) run on the trace a study produces:
//
//	fig8 := core.RunFig8(result.Events, result.BlockBytes())
//
// Many studies -- seed replications, scale sweeps, workload or
// machine variants -- run in parallel through the sweep engine, which
// fans specs across worker goroutines with one reusable Arena each
// and merges outcomes deterministically in spec order:
//
//	specs := core.CrossSpecs([]uint64{1, 2, 3, 4}, []float64{0.05})
//	sweep := core.RunSweep(ctx, core.SweepConfig{Specs: specs})
//	fmt.Print(sweep.Format())
package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/analysis"
	"repro/internal/cachesim"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config selects the scale and seed of a study.
type Config struct {
	Seed uint64
	// Scale shrinks the full 156-hour, 3016-job study; 1.0 reproduces
	// the paper's population, 0.05 runs in well under a second.
	Scale float64
	// Workload overrides the calibrated mixture when non-nil. Its
	// Seed and Scale fields are ignored: Config.Seed and Config.Scale
	// are stamped onto the copy the study runs, so one Params value
	// can serve every (seed, scale) point of a sweep.
	Workload *workload.Params
	// Machine overrides the NAS machine configuration when non-nil.
	// Its Seed field is likewise stamped from Config.Seed.
	Machine *machine.Config
	// Faults injects deterministic hardware degradation when non-nil:
	// it is stamped onto the machine configuration the study runs
	// (overriding any Faults carried by Machine). Nil leaves the
	// machine healthy.
	Faults *faults.Config
}

// MinScale is the smallest supported study scale: every entry point
// clamps smaller (or unset) scales up to it, so a zero-value Config
// runs a 1% study rather than silently simulating the full 156-hour
// population.
const MinScale = 0.01

// CheckScale accepts the scales a command line may ask for: finite,
// above 0 and at most 1, the paper's full population and the cap a
// scenario spec has. Positive scales below MinScale pass and are
// clamped by normalized. Above 1, studyParams grows each drive past
// what the file system can address (from scale 736), and the growth
// factor itself overflows long before an infinite scale.
func CheckScale(scale float64) error {
	if !(scale > 0 && scale <= 1) { // the negated form also rejects NaN
		return fmt.Errorf("scale %v out of range (0, 1]", scale)
	}
	return nil
}

// normalized returns the config with its scale clamped to MinScale.
// It is the single clamping point: DefaultConfig, RunStudy, and the
// sweep engine all apply it. Non-finite scales clamp too: NaN fails
// every ordered comparison (so the old `< MinScale` guard let it
// through to the generator), and +Inf would ask for unbounded work.
func (cfg Config) normalized() Config {
	if math.IsInf(cfg.Scale, 0) || !(cfg.Scale >= MinScale) {
		cfg.Scale = MinScale
	}
	return cfg
}

// DefaultConfig returns a study at the given scale (clamped to
// MinScale) with the calibrated workload.
func DefaultConfig(seed uint64, scale float64) Config {
	return Config{Seed: seed, Scale: scale}.normalized()
}

// Result is everything a study produces.
type Result struct {
	Header  trace.Header
	Trace   *trace.Trace  // raw blocks, as collected
	Events  []trace.Event // postprocessed: drift-corrected, sorted
	Report  *analysis.Report
	Horizon sim.Time

	// Instrumentation-side statistics (Section 3).
	TraceRecords  int64 // events recorded at compute nodes
	TraceMessages int64 // blocks shipped to the collector
	DiskOps       int64 // physical disk operations during the study

	// IOQueue holds per-I/O-node observed queueing counters (batches,
	// total wait, total service). They are observation-only — the
	// simulation's timing is identical with or without them — and are
	// what the analytical twin's conformance test compares its walk
	// against.
	IOQueue []machine.IONodeQueueStat
}

// BlockBytes returns the file-system block size the trace was
// collected under.
func (r *Result) BlockBytes() int64 { return int64(r.Header.BlockBytes) }

// RunStudy generates the workload, simulates the machine while tracing
// all instrumented CFS activity, postprocesses the trace, and analyzes
// it.
func RunStudy(cfg Config) *Result {
	return runStudy(cfg, nil)
}

// studyParams resolves a normalized config into the workload and
// machine configurations a study runs: overrides applied, the seed
// stamped onto both, and the large-scale disk-capacity adjustment.
func studyParams(cfg Config) (workload.Params, machine.Config) {
	wp := workload.Default(cfg.Seed)
	if cfg.Workload != nil {
		wp = *cfg.Workload
		wp.Seed = cfg.Seed
	}
	wp.Scale = cfg.Scale

	mc := machine.NASConfig(cfg.Seed)
	if cfg.Machine != nil {
		mc = *cfg.Machine
		mc.Seed = cfg.Seed
	}
	// The 7.6 GB volume cannot hold a full-scale three-week output
	// load (real users archived results off-machine between runs, a
	// process outside the traced window); give the simulated drives
	// room at larger scales. This changes capacity only, not timing
	// parameters, so no simulated service time moves.
	if cfg.Scale > 0.2 && cfg.Machine == nil {
		grow := int64(1 + 15*cfg.Scale)
		mc.FS.IONode.Disk.CapacityBytes *= grow
	}
	if cfg.Faults != nil {
		mc.Faults = *cfg.Faults
	}
	return wp, mc
}

// simulate is the first of the two steps every simulated study runs;
// analyze is the second. It resolves the config, builds the machine,
// runs the workload and finishes tracing, and returns the machine, the
// horizon, the collected trace and a Reader over its blocks. With a
// non-nil arena the machine is built on its pools (the kernel reset,
// the file system recycled once the trace is collected). With a
// non-nil sink the collector spills every block through it as it
// arrives, on a private arena whose trace chunks cycle block by block;
// the trace then holds only the header, and the Reader reads the
// spill back. Only a spill can fail.
func simulate(cfg Config, a *Arena, sink StreamSink) (*machine.Machine, sim.Time, *trace.Trace, *trace.Reader, error) {
	cfg = cfg.normalized()
	wp, mc := studyParams(cfg)

	var k *sim.Kernel
	var mach *machine.Arena
	switch {
	case a != nil:
		a.kernel.Reset()
		k, mach = a.kernel, &a.mach
	case sink != nil:
		k, mach = sim.New(), &machine.Arena{}
	default:
		k = sim.New()
	}
	m := machine.NewWith(k, mc, mach)
	var w *trace.Writer
	if sink != nil {
		var err error
		if w, err = trace.NewWriter(sink, m.TraceHeader()); err != nil {
			return nil, 0, nil, nil, fmt.Errorf("core: starting trace spill: %w", err)
		}
		m.SetTraceSink(w)
	}
	horizon := workload.NewGenerator(wp).Install(m)
	k.Run()
	tr := m.FinishTracing()
	if a != nil {
		// The trace is collected: the file system's file structs and
		// open groups can serve the next study even while this one is
		// analyzed.
		m.FS().Recycle()
	}
	if sink == nil {
		return m, horizon, tr, tr.Reader(), nil
	}
	err := m.TraceSinkErr()
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		return nil, 0, nil, nil, fmt.Errorf("core: spilling trace: %w", err)
	}
	// The writer's block index carries the byte offsets and the double
	// timestamps, so reading the spill back needs no scan pass.
	rd, err := w.Reader(sink)
	if err != nil {
		return nil, 0, nil, nil, fmt.Errorf("core: reopening spilled trace: %w", err)
	}
	return m, horizon, tr, rd, nil
}

// analyzeBatch is how many merged events analyze hands the analyzer
// at a time. Observing inside the merge's callback, event by event,
// interleaves the two working sets and runs slower.
const analyzeBatch = 4096

// analyze is the one merge pass: it runs rd's drift-corrected k-way
// merge once and feeds the stream to an online analyzer in batches,
// drawing the analyzer's working state from scratch (nil allocates it
// fresh). The batches live in *buf's storage (a nil buf allocates
// it), which is handed back in *buf: with keep, the whole stream is
// collected there, growing it at most once, and each batch is a
// window of it; without, it is one reused batch. horizon 0 means the
// last event's time. The only error is a .trc read or decode failure,
// so it is always nil for a Reader over collected blocks.
func analyze(rd *trace.Reader, horizon sim.Time, scratch *analysis.Scratch, buf *[]trace.Event, keep bool) (*analysis.Report, error) {
	o := analysis.OnlineInto(scratch, rd.Header())
	if buf == nil {
		buf = new([]trace.Event)
	}
	n := analyzeBatch
	if keep {
		n = int(rd.EventCount())
	}
	evs := slices.Grow((*buf)[:0], n)
	next := 0 // first event of evs the analyzer has not seen
	observe := func() {
		for i := next; i < len(evs); i++ {
			o.Observe(&evs[i])
		}
		if !keep {
			evs = evs[:0]
		}
		next = len(evs)
	}
	err := rd.Events(func(ev *trace.Event) error {
		if evs = append(evs, *ev); len(evs)-next == analyzeBatch {
			observe()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	observe()
	*buf = evs
	return o.Finish(horizon), nil
}

// runStudy is RunStudy (a == nil, everything freshly allocated) and
// Arena.RunStudy (storage drawn from and returned to the arena's
// pools). Both keep the merged stream as Result.Events.
func runStudy(cfg Config, a *Arena) *Result {
	m, horizon, tr, rd, _ := simulate(cfg, a, nil) // no sink: cannot fail
	keep := new([]trace.Event)
	var scratch *analysis.Scratch
	if a != nil {
		keep, scratch = &a.events, &a.scratch
	}
	report, _ := analyze(rd, horizon, scratch, keep, true) // collected blocks: cannot fail
	report.Degradation = m.FaultReport()
	return &Result{
		Header:        tr.Header,
		Trace:         tr,
		Events:        *keep,
		Report:        report,
		Horizon:       horizon,
		TraceRecords:  m.TraceRecords(),
		TraceMessages: m.TraceMessages(),
		DiskOps:       m.FS().TotalDiskOps(),
		IOQueue:       m.IONodeQueueStats(),
	}
}

// Fig8Result is the compute-node caching experiment at one cache size.
type Fig8Result struct {
	Buffers int
	Jobs    []cachesim.JobHitRate
}

// RunFig8 reproduces Figure 8: per-job hit-rate distributions for
// compute-node caches of 1, 10, and 50 one-block buffers.
func RunFig8(events []trace.Event, blockBytes int64) []Fig8Result {
	return RunFig8Buffers(events, blockBytes, []int{1, 10, 50})
}

// RunFig8Buffers is RunFig8 at caller-chosen cache sizes (the
// scenario engine's fig8 axis). Every size comes out of one pass over
// the events: the compute-node caches are LRU, so per-(job, node) stack
// distances decide each request's hit at every size at once.
func RunFig8Buffers(events []trace.Event, blockBytes int64, buffers []int) []Fig8Result {
	jobs := cachesim.ComputeNodeSweep(events, blockBytes, buffers)
	out := make([]Fig8Result, len(buffers))
	for i, b := range buffers {
		out[i] = Fig8Result{Buffers: b, Jobs: jobs[i]}
	}
	return out
}

// Fig9Sweep reproduces one Figure 9 curve: hit rate as a function of
// total buffer count for the given policy and I/O-node count, with
// counts below ioNodes raised to one buffer per node. An LRU curve is
// one pass over the events, since stack distances give every size at
// once. The other policies simulate each size, so the ladder is dealt
// into at most GOMAXPROCS chunks, each chunk's caches run side by side
// in one pass, and the results are merged in ladder order.
func Fig9Sweep(events []trace.Event, blockBytes int64, ioNodes int, policy cachesim.Policy, bufferCounts []int) []cachesim.IONodeResult {
	ladder := make([]int, len(bufferCounts))
	for i, b := range bufferCounts {
		ladder[i] = max(b, ioNodes)
	}
	if policy == cachesim.LRU {
		return cachesim.IONodeSweep(events, blockBytes, ioNodes, ladder, policy)
	}
	out := make([]cachesim.IONodeResult, len(ladder))
	chunks := min(runtime.GOMAXPROCS(0), len(ladder))
	parallelEach(nil, chunks, chunks, func(_, c int) {
		// Chunk c takes every chunks-th size, so each chunk holds a
		// share of the large caches.
		var idx, sizes []int
		for i := c; i < len(ladder); i += chunks {
			idx = append(idx, i)
			sizes = append(sizes, ladder[i])
		}
		for j, r := range cachesim.IONodeSweep(events, blockBytes, ioNodes, sizes, policy) {
			out[idx[j]] = r
		}
	})
	return out
}

// DefaultFig9Buffers is the buffer-count sweep used by the harness,
// spanning the paper's 0-25000 x-axis (shared with the scenario
// engine's fig9 default).
func DefaultFig9Buffers() []int { return scenario.DefaultFig9Buffers() }

// RunCombined reproduces the Section 4.8 combined experiment: single
// one-block compute-node buffers in front of 10 I/O nodes with 50
// buffers each.
func RunCombined(events []trace.Event, blockBytes int64) cachesim.CombinedResult {
	return cachesim.Combined(events, blockBytes, 10, 50)
}
