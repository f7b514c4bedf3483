// The sweep engine: the paper's real use case is not one study but
// many -- seed replications for confidence intervals, scale and
// workload-mixture sweeps, machine-variant comparisons -- and each
// study is an independent, deterministic simulation. RunSweep fans a
// deterministic list of study specs across a pool of worker
// goroutines, each with one arena its studies reuse, and merges the
// outcomes in spec order, so the merged output is byte-identical
// regardless of worker count (TestRunSweepWorkerCountInvariance pins
// this).
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// StudySpec is one study in a sweep: a label for reports plus the
// study configuration.
type StudySpec struct {
	Label  string
	Config Config
}

// SweepConfig selects the specs to run and how to run them.
type SweepConfig struct {
	Specs []StudySpec
	// Workers is the worker-goroutine count; <= 0 uses GOMAXPROCS.
	// The merged result is identical for every worker count.
	Workers int
	// Cache, when non-nil, is the cache-experiment plan every study
	// runs on its own merged stream: its experiments observe the same
	// merge pass as the analysis, on the worker, and the text lands in
	// StudyOutcome.CacheText. No study keeps its stream, so a worker
	// holds one batch of events, whatever the plan. The run store folds
	// a non-nil plan into every study's fingerprint salt (sweepKeys).
	Cache *scenario.ResolvedCache
}

// StudyOutcome is one study's results within a sweep.
type StudyOutcome struct {
	Spec StudySpec
	// Done is false when the sweep was cancelled before this spec ran.
	Done bool

	ReportText string // Report.Format()
	// CacheText is the formatted cache-experiment sections (empty when
	// the sweep runs no cache plan).
	CacheText string
	Header    trace.Header

	Horizon       sim.Time
	EventCount    int
	TraceRecords  int64
	TraceMessages int64
	DiskOps       int64
}

// SweepResult is a sweep's merged output, in spec order.
type SweepResult struct {
	Outcomes []StudyOutcome
	Workers  int
	// Elapsed is wall time; informational only and never part of
	// Format's deterministic output.
	Elapsed time.Duration
	// Err records the context error when the sweep was cancelled.
	Err error
}

// RunSweep runs every spec across a pool of workers and merges the
// outcomes in spec order. Each worker owns one arena, so its second
// and later studies reuse the first's storage. Cancelling the context
// stops workers between studies; already-finished outcomes are kept
// and unrun specs are left with Done == false.
func RunSweep(ctx context.Context, cfg SweepConfig) *SweepResult {
	res, _ := runStudies(ctx, cfg.Specs, cfg.Workers, func(a *arena, i int) (StudyOutcome, error) {
		return runSpec(a, cfg.Cache, cfg.Specs[i]), nil
	}) // runSpec cannot fail
	return res
}

// runStudies is the in-memory study executor of RunSweep and replay
// scenarios: it runs study(a, i) for every spec across
// workerCount(workers, len(specs)) goroutines, a being the worker's
// arena, and merges the outcomes in spec order. A cancelled context
// stops workers between studies; a study that fails or never runs
// leaves its outcome with only Spec set. The error is the first study
// error in spec order; the result's Err holds the context's.
func runStudies(ctx context.Context, specs []StudySpec, workers int, study func(a *arena, i int) (StudyOutcome, error)) (*SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(specs)
	res := &SweepResult{Outcomes: make([]StudyOutcome, n)}
	for i := range res.Outcomes {
		res.Outcomes[i].Spec = specs[i]
	}
	if n == 0 {
		return res, nil
	}
	res.Workers = workerCount(workers, n)
	arena := workerArenas(res.Workers, n)
	errs := make([]error, n)
	start := time.Now()
	parallelEach(ctx, n, res.Workers, func(w, i int) {
		if out, err := study(arena(w), i); err != nil {
			errs[i] = err
		} else {
			res.Outcomes[i] = out
		}
	})
	res.Elapsed = time.Since(start)
	res.Err = ctx.Err()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// runSpec runs one study on the worker's arena, with the cache plan's
// experiments observing its merge pass (the arena's event storage holds
// only the pass's batches), and hands the study's trace and file
// structs back to the arena once the outcome holds its text and
// counters.
func runSpec(a *arena, plan *scenario.ResolvedCache, spec StudySpec) StudyOutcome {
	m, horizon, tr, rd, _ := simulate(spec.Config, a, nil)                            // no sink: cannot fail
	x, _ := newCacheRun(plan, rd)                                                     // collected blocks: cannot fail
	report, _ := analyze(rd, horizon, &a.scratch, &a.events, false, x.consumers()...) // likewise
	report.Degradation = m.FaultReport()
	out := StudyOutcome{
		Spec:          spec,
		Done:          true,
		ReportText:    report.Format(),
		CacheText:     x.text(),
		Header:        rd.Header(),
		Horizon:       horizon,
		EventCount:    int(rd.EventCount()),
		TraceRecords:  m.TraceRecords(),
		TraceMessages: m.TraceMessages(),
		DiskOps:       m.FS().TotalDiskOps(),
	}
	a.mach.Trace.ReclaimTrace(tr)
	m.FS().Recycle()
	return out
}

// CrossSpecs builds the deterministic spec list for a sweep over the
// cross product seed x scale (seeds outermost) of calibrated studies
// on the NAS machine. Empty seeds default to {42}, empty scales to
// {0.1}. Scenarios (ScenarioSpecs) add workload and machine axes.
func CrossSpecs(seeds []uint64, scales []float64) []StudySpec {
	if len(seeds) == 0 {
		seeds = []uint64{42}
	}
	if len(scales) == 0 {
		scales = []float64{0.1}
	}
	specs := make([]StudySpec, 0, len(seeds)*len(scales))
	for _, seed := range seeds {
		for _, scale := range scales {
			cfg := Config{Seed: seed, Scale: scale}.normalized()
			// Label the clamped scale, so a sub-MinScale input is
			// visibly the study that actually runs.
			label := fmt.Sprintf("seed=%d scale=%g", seed, cfg.Scale)
			specs = append(specs, StudySpec{Label: label, Config: cfg})
		}
	}
	return specs
}

// Format renders the sweep's merged output: one row per completed
// study plus min/median/max aggregate columns over the headline
// per-study metrics. The text depends only on the outcomes, never on
// timing or worker count.
func (r *SweepResult) Format() string {
	var b strings.Builder
	done := 0
	for i := range r.Outcomes {
		if r.Outcomes[i].Done {
			done++
		}
	}
	fmt.Fprintf(&b, "Sweep: %d studies\n", len(r.Outcomes))
	if done < len(r.Outcomes) {
		fmt.Fprintf(&b, "  (cancelled: only %d completed)\n", done)
	}
	fmt.Fprintf(&b, "%-28s  %10s  %10s  %9s  %10s  %10s\n",
		"study", "events", "records", "messages", "disk ops", "horizon(h)")
	var events, records, messages, diskOps, horizon []float64
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		if !o.Done {
			continue
		}
		label := o.Spec.Label
		if label == "" {
			label = fmt.Sprintf("spec %d", i)
		}
		h := o.Horizon.ToSeconds() / 3600
		fmt.Fprintf(&b, "%-28s  %10d  %10d  %9d  %10d  %10.2f\n",
			label, o.EventCount, o.TraceRecords, o.TraceMessages, o.DiskOps, h)
		events = append(events, float64(o.EventCount))
		records = append(records, float64(o.TraceRecords))
		messages = append(messages, float64(o.TraceMessages))
		diskOps = append(diskOps, float64(o.DiskOps))
		horizon = append(horizon, h)
	}
	if done > 0 {
		fmt.Fprintf(&b, "\nAggregate over %d studies (min / median / max):\n", done)
		aggRow(&b, "events", events, "%.0f")
		aggRow(&b, "trace records", records, "%.0f")
		aggRow(&b, "trace messages", messages, "%.0f")
		aggRow(&b, "disk ops", diskOps, "%.0f")
		aggRow(&b, "horizon hours", horizon, "%.2f")
	}
	return b.String()
}

// aggRow prints one min/median/max aggregate line.
func aggRow(b *strings.Builder, name string, vals []float64, numFmt string) {
	mn, md, mx := minMedianMax(vals)
	f := numFmt + " / " + numFmt + " / " + numFmt + "\n"
	fmt.Fprintf(b, "  %-16s "+f, name, mn, md, mx)
}

// minMedianMax returns the order statistics of vals (which it sorts).
// The median of an even count is the mean of the two middle values.
func minMedianMax(vals []float64) (mn, md, mx float64) {
	if len(vals) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(vals)
	n := len(vals)
	md = vals[n/2]
	if n%2 == 0 {
		md = (vals[n/2-1] + vals[n/2]) / 2
	}
	return vals[0], md, vals[n-1]
}

// workerCount resolves a Workers field for n items: GOMAXPROCS when
// workers <= 0, never more than n, and at least 1.
func workerCount(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// parallelEach runs fn(worker, i) for i in 0..n-1 across
// workerCount(workers, n) goroutines. Indexes are claimed from a
// shared atomic counter, each exactly once; the worker id lets fn keep
// per-worker state (e.g. one arena each). fn may write its own index's
// state unsynchronized, and the caller reads it once parallelEach
// returns; anything else fn shares needs a lock. A non-nil cancelled
// context stops workers between items, leaving later indexes unrun.
func parallelEach(ctx context.Context, n, workers int, fn func(worker, i int)) {
	workers = workerCount(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				return
			}
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || (ctx != nil && ctx.Err() != nil) {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
