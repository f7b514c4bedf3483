// Lowering declarative scenarios onto the sweep engine: RunScenario
// turns a validated scenario.Spec into the deterministic StudySpec
// list (seed x scale x workload-mix x machine-preset) and runs it
// through RunSweep with the spec's cache plan, so the trace-driven
// cache experiments observe every study's merge pass. Like the sweep
// itself, a scenario's formatted output is byte-identical at any
// worker count; the golden corpus under testdata/scenarios/ pins it.
package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/cachesim"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ScenarioResult is a scenario's complete output. Each outcome's
// CacheText holds its cache-experiment sections.
type ScenarioResult struct {
	Spec  *scenario.Spec
	Sweep *SweepResult
}

// RunScenario validates spec, lowers it onto the sweep engine, and
// runs any cache experiments on the per-study event streams. The
// returned result's Format output depends only on the spec, never on
// worker count or timing. On context cancellation the partial result
// is returned alongside the context error.
func RunScenario(ctx context.Context, spec *scenario.Spec) (*ScenarioResult, error) {
	if spec == nil {
		return nil, errors.New("core: nil scenario spec")
	}
	// Validate also (re)resolves registry names for hand-built specs.
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.IsReplay() {
		return runReplayScenario(ctx, spec)
	}
	// Each study's cache text depends on its events alone, which keeps
	// worker-count invariance.
	sweep := RunSweep(ctx, SweepConfig{
		Specs:   ScenarioSpecs(spec),
		Workers: spec.Workers,
		Cache:   spec.CachePlan(),
	})
	return &ScenarioResult{Spec: spec, Sweep: sweep}, sweep.Err
}

// runReplayScenario lowers a replay scenario: each recorded trace
// file is one study -- streamed through the reader's drift-corrected
// merge, analyzed, and fed to the spec's cache experiments -- with
// the traces fanned across workers exactly like simulated studies.
// Every outcome depends only on its own trace file, so the formatted
// output is byte-identical at any worker count.
func runReplayScenario(ctx context.Context, spec *scenario.Spec) (*ScenarioResult, error) {
	plan := spec.CachePlan()
	paths := spec.ReplayTraces()
	specs := make([]StudySpec, len(paths))
	for i, path := range paths {
		specs[i] = StudySpec{Label: replayLabel(path)}
	}
	sweep, err := runStudies(ctx, specs, spec.Workers, func(a *arena, i int) (StudyOutcome, error) {
		return replayStudy(a, paths[i], plan)
	})
	if err == nil {
		err = sweep.Err
	}
	return &ScenarioResult{Spec: spec, Sweep: sweep}, err
}

// replayLabel names a replay study after its trace file.
func replayLabel(path string) string {
	return "replay=" + strings.TrimSuffix(filepath.Base(path), ".trc")
}

// replayStudy runs one recorded trace through the merge pass on the
// worker's arena, with the cache plan's experiments observing it, as
// runSpec does a simulated study. Neither the raw blocks nor the merged
// stream is ever materialized: when the plan needs the read-only file
// set, it comes from one more sequential decode of the file's blocks,
// not a second merge. A recorded trace carries no simulation end time,
// so the horizon is the last event's. An error names the study's label.
func replayStudy(a *arena, path string, plan *scenario.ResolvedCache) (StudyOutcome, error) {
	spec := StudySpec{Label: replayLabel(path)}
	rd, err := trace.OpenReader(path)
	if err != nil {
		return StudyOutcome{}, fmt.Errorf("core: replay %s: %w", spec.Label, err)
	}
	defer rd.Close()
	x, err := newCacheRun(plan, rd)
	if err != nil {
		return StudyOutcome{}, fmt.Errorf("core: replay %s: %w", spec.Label, err)
	}
	report, err := analyze(rd, 0, &a.scratch, &a.events, false, x.consumers()...)
	if err != nil {
		return StudyOutcome{}, fmt.Errorf("core: replay %s: %w", spec.Label, err)
	}
	return StudyOutcome{
		Spec:          spec,
		Done:          true,
		ReportText:    report.Format(),
		CacheText:     x.text(),
		Header:        rd.Header(),
		Horizon:       report.Horizon,
		EventCount:    int(rd.EventCount()),
		TraceRecords:  rd.EventCount(),
		TraceMessages: int64(rd.NumBlocks()),
	}, nil
}

// ScenarioSpecs builds the deterministic study list a scenario runs:
// the cross product seed x scale x workload-mix x machine-preset, in
// that nesting order. Labels name the mix and machine axes only when
// the spec declares them, so an axis-free scenario's sweep rows read
// exactly like a plain CrossSpecs sweep.
func ScenarioSpecs(spec *scenario.Spec) []StudySpec {
	specs := make([]StudySpec, 0, spec.Studies())
	for _, seed := range spec.SeedList() {
		for _, scale := range spec.ScaleList() {
			for _, mix := range spec.MixList() {
				for _, mc := range spec.MachineList() {
					cfg := Config{Seed: seed, Scale: scale, Workload: mix.Params, Machine: mc.Config, Faults: spec.FaultsConfig()}.normalized()
					label := fmt.Sprintf("seed=%d scale=%g", seed, cfg.Scale)
					if spec.MultiMix() {
						label += " wl=" + mix.Name
					}
					if spec.MultiMachine() {
						label += " mc=" + mc.Name
					}
					specs = append(specs, StudySpec{Label: label, Config: cfg})
				}
			}
		}
	}
	return specs
}

// cacheRun is one study's cache plan as consumers of its merge pass:
// every experiment the plan selects, built before the first event. A
// nil cacheRun runs nothing and renders no text.
type cacheRun struct {
	plan      *scenario.ResolvedCache
	fig8      *cachesim.ComputeNodeSim
	fig9      []*fig9Curve // per I/O-node count, then per policy
	combined  []*cachesim.CombinedSim
	observers []consumer
}

// newCacheRun builds the plan's experiments for the trace rd reads (a
// nil plan builds none). Fig 8 and the combined experiment take the
// read-only file set before their first event. The set does not depend
// on event order, so it comes from one scan of rd's raw blocks before
// the merge: a collected trace's scan walks memory, a .trc's decodes
// the file once more. The only error is a .trc read or decode failure.
func newCacheRun(plan *scenario.ResolvedCache, rd *trace.Reader) (*cacheRun, error) {
	if plan == nil {
		return nil, nil
	}
	blockBytes := rd.Header().BlockSize()
	var ro map[uint64]bool
	if plan.Fig8Buffers != nil || plan.Combined != nil {
		var s cachesim.ReadOnlySet
		if err := rd.Blocks(s.ObserveBlock); err != nil {
			return nil, err
		}
		ro = s.Files()
	}
	x := &cacheRun{plan: plan}
	if plan.Fig8Buffers != nil {
		x.fig8 = cachesim.NewComputeNodeSim(ro, blockBytes, plan.Fig8Buffers)
		x.observers = append(x.observers, eachEvent{x.fig8})
	}
	if plan.Fig9 != nil {
		for _, ioNodes := range plan.Fig9.IONodes {
			for _, p := range plan.Fig9.Policies {
				c := newFig9Curve(blockBytes, ioNodes, p, plan.Fig9.Buffers)
				x.fig9 = append(x.fig9, c)
				x.observers = append(x.observers, c)
			}
		}
	}
	if plan.Combined != nil {
		for _, p := range plan.Combined.Policies {
			c := cachesim.NewCombinedSim(ro, blockBytes, plan.Combined.IONodes, plan.Combined.BuffersPerIONode, p)
			x.combined = append(x.combined, c)
			x.observers = append(x.observers, eachEvent{c})
		}
	}
	return x, nil
}

// consumers returns the experiments, for analyze to feed.
func (x *cacheRun) consumers() []consumer {
	if x == nil {
		return nil
	}
	return x.observers
}

// text renders the experiments' results once the merge pass is over.
func (x *cacheRun) text() string {
	if x == nil {
		return ""
	}
	var fig8 []Fig8Result
	if x.fig8 != nil {
		fig8 = fig8Results(x.plan.Fig8Buffers, x.fig8.Results())
	}
	fig9 := make([][]cachesim.IONodeResult, len(x.fig9))
	for i, c := range x.fig9 {
		fig9[i] = c.results()
	}
	combined := make([]cachesim.CombinedResult, len(x.combined))
	for i, c := range x.combined {
		combined[i] = c.Result()
	}
	return formatCacheText(x.plan, fig8, fig9, combined)
}

// formatCacheText renders every cache experiment the plan selects from
// its results: fig9 holds one curve per I/O-node count and policy, in
// plan order, and combined one result per policy.
func formatCacheText(plan *scenario.ResolvedCache, fig8 []Fig8Result, fig9 [][]cachesim.IONodeResult, combined []cachesim.CombinedResult) string {
	var b strings.Builder
	if plan.Fig8Buffers != nil {
		b.WriteString(FormatFig8(fig8))
	}
	if plan.Fig9 != nil {
		if b.Len() > 0 {
			b.WriteString("\n")
		}
		b.WriteString(formatFig9Grid(plan.Fig9, fig9))
	}
	for _, res := range combined {
		if b.Len() > 0 {
			b.WriteString("\n")
		}
		b.WriteString(FormatCombined(res))
	}
	return b.String()
}

// FormatFig8 renders the Figure 8 experiment exactly as the cachesim
// command always has: a per-job hit-rate CDF per cache size.
func FormatFig8(results []Fig8Result) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 8: compute-node caching (read-only files, LRU, 4 KB buffers)")
	fmt.Fprintln(&b, "CDF of per-job hit rates:")
	for _, fr := range results {
		var cdf stats.CDF
		for _, j := range fr.Jobs {
			cdf.Add(100 * j.Rate())
		}
		fmt.Fprintf(&b, "\n  %d buffer(s), %d jobs:\n", fr.Buffers, len(fr.Jobs))
		fmt.Fprintf(&b, "  %10s  %8s\n", "hit rate", "CDF")
		for pct := 0; pct <= 100; pct += 10 {
			fmt.Fprintf(&b, "  %9d%%  %8.4f\n", pct, cdf.At(float64(pct)))
		}
	}
	return b.String()
}

// FormatFig9 renders the Figure 9 experiment exactly as the cachesim
// command always has: the LRU and FIFO hit-rate curves over the
// paper's buffer-count ladder at the trace's I/O-node count, one
// Fig9Sweep each.
func FormatFig9(events []trace.Event, blockBytes int64, ioNodes int) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 9: I/O-node caching (4 KB buffers)")
	fmt.Fprintf(&b, "%10s  %10s  %10s\n", "buffers", "LRU", "FIFO")
	buffers := DefaultFig9Buffers()
	lru := Fig9Sweep(events, blockBytes, ioNodes, cachesim.LRU, buffers)
	fifo := Fig9Sweep(events, blockBytes, ioNodes, cachesim.FIFO, buffers)
	for i, n := range buffers {
		fmt.Fprintf(&b, "%10d  %9.1f%%  %9.1f%%\n", n, 100*lru[i].Rate(), 100*fifo[i].Rate())
	}
	return b.String()
}

// formatFig9Grid renders the I/O-node sweep as one table per I/O-node
// count: rows are buffer counts, columns are policies. curves holds
// one curve per (I/O-node count, policy), in plan order.
func formatFig9Grid(plan *scenario.ResolvedFig9, curves [][]cachesim.IONodeResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 9: I/O-node caching (4 KB buffers)")
	for ni, ioNodes := range plan.IONodes {
		fmt.Fprintf(&b, "\n  %d I/O node(s):\n", ioNodes)
		fmt.Fprintf(&b, "  %10s", "buffers")
		for _, p := range plan.Policies {
			fmt.Fprintf(&b, "  %10s", p)
		}
		fmt.Fprintln(&b)
		curves := curves[ni*len(plan.Policies) : (ni+1)*len(plan.Policies)]
		for bi, buffers := range plan.Buffers {
			fmt.Fprintf(&b, "  %10d", buffers)
			for pi := range plan.Policies {
				fmt.Fprintf(&b, "  %9.1f%%", 100*curves[pi][bi].Rate())
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}

// FormatCombined renders the Section 4.8 combined experiment. The
// configuration in the header comes from the result itself, so it
// always describes the simulation that actually ran.
func FormatCombined(res cachesim.CombinedResult) string {
	var b strings.Builder
	ioNodes := res.IONodeAlone.IONodes
	buffersPerIONode := 0
	if ioNodes > 0 {
		buffersPerIONode = res.IONodeAlone.TotalBuffers / ioNodes
	}
	fmt.Fprintln(&b, "Combined caches (Section 4.8): one 4 KB buffer per compute node")
	fmt.Fprintf(&b, "in front of %d I/O nodes with %d %s buffers each\n",
		ioNodes, buffersPerIONode, res.IONodeAlone.Policy)
	fmt.Fprintf(&b, "  I/O-node hit rate, no compute caches:   %.1f%%\n", 100*res.IONodeAlone.Rate())
	fmt.Fprintf(&b, "  I/O-node hit rate, with compute caches: %.1f%%\n", 100*res.IONodeFiltered.Rate())
	fmt.Fprintf(&b, "  reduction: %.1f points (the paper measured ~3)\n",
		100*(res.IONodeAlone.Rate()-res.IONodeFiltered.Rate()))
	fmt.Fprintf(&b, "  requests absorbed at compute nodes: %d\n", res.ComputeHits)
	return b.String()
}

// Format renders the scenario's complete deterministic report: the
// header, the sweep table, and one cache-experiment section per
// study. The text depends only on the spec and the outcomes.
func (r *ScenarioResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario: %s (spec v%d, %d studies)\n", r.Spec.Name, r.Spec.Version, len(r.Sweep.Outcomes))
	if r.Spec.Description != "" {
		fmt.Fprintf(&b, "%s\n", r.Spec.Description)
	}
	b.WriteString("\n")
	b.WriteString(r.Sweep.Format())
	for i := range r.Sweep.Outcomes {
		o := &r.Sweep.Outcomes[i]
		if o.CacheText == "" {
			continue
		}
		label := o.Spec.Label
		if label == "" {
			label = fmt.Sprintf("spec %d", i)
		}
		fmt.Fprintf(&b, "\n=== cache experiments: %s ===\n\n", label)
		b.WriteString(o.CacheText)
	}
	return b.String()
}
