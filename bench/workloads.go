package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/twin"
	"repro/internal/workload"
)

// opResult is what one op produced, reduced to what the verification
// pass compares.
type opResult struct {
	digest   string             // every deterministic output; both runs of a seed must agree
	entry    string             // the part the one-call entry point also produces
	studies  int                // studies (or predictions) the op completed
	counters map[string]float64 // simulated counters; they repeat exactly for a seed
}

// runner executes one workload's ops. op runs the staged pipeline,
// one public call per span; entry runs the same study through the
// one-call entry point and returns the digest op's entry must match.
type runner interface {
	op(rec *Recorder, seed uint64, scale float64) (opResult, error)
	entry(seed uint64, scale float64) (string, error)
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// scale is the study scale of a measured op; set-up's warm-up op
	// runs at core.MinScale.
	scale float64
	// pool is how many study seeds the workload's fixed study pool
	// holds; a pass runs each of them twice.
	pool int
	// setup builds the workload's inputs; dir is an empty directory
	// the runner may use for its files.
	setup func(dir string) (runner, error)
}

// The mixes below copy the job counts of testdata/scenarios/
// read-mostly.json and checkpoint-heavy.json, so editing those corpus
// files never changes what the benchmark measures.
const readersMix = `{"name": "readers", "base": "empty", "sharedFieldFiles": 30,
	"jobs": {"single-reader": 300, "row-padded": 120, "legacy-shared": 60, "status-check": 150}}`

const checkpointMix = `{"name": "checkpointers", "base": "empty",
	"jobs": {"checkpoint": 400, "cfd-sim": 60, "status-check": 200, "system-util": 100}}`

var workloads = []workloadDef{
	{name: "nas-trace", scale: 0.1, pool: 3, setup: func(string) (runner, error) {
		return &batchStudy{}, nil
	}},
	{name: "readers-caches", scale: 0.2, pool: 3, setup: func(string) (runner, error) {
		mix, err := parseMix(readersMix)
		return &batchStudy{mix: mix, caches: true}, err
	}},
	{name: "checkpoint-stream", scale: 0.2, pool: 4, setup: func(dir string) (runner, error) {
		mix, err := parseMix(checkpointMix)
		return &streamStudy{mix: mix, dir: dir}, err
	}},
	{name: "predict-nas", scale: 0.1, pool: 3, setup: func(string) (runner, error) {
		return predictStudy{}, nil
	}},
	{name: "machines-sweep", scale: 0.02, pool: 1, setup: func(dir string) (runner, error) {
		return &storeSweep{dir: dir}, nil
	}},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// parseMix resolves one workload mix through the scenario layer, the
// way a scenario file's mix is resolved.
func parseMix(mixJSON string) (*workload.Params, error) {
	spec, err := scenario.Parse([]byte(`{"version": 1, "name": "bench-mix", "workloads": [` + mixJSON + `]}`))
	if err != nil {
		return nil, err
	}
	return spec.MixList()[0].Params, nil
}

// studyParams resolves a study configuration the way core does for
// the configurations the benchmark runs (healthy NAS machine, scale at
// most 0.2, so no disk-capacity growth). Every runner's entry check
// compares the staged pipeline built on it against core's own
// resolution.
func studyParams(seed uint64, scale float64, mix *workload.Params) (workload.Params, machine.Config) {
	wp := workload.Default(seed)
	if mix != nil {
		wp = *mix
		wp.Seed = seed
	}
	wp.Scale = scale
	return wp, machine.NASConfig(seed)
}

func digestOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// machineCounters reads the simulated machine's counters after a run.
// Utilization is measured against the study horizon, as the twin's is.
func machineCounters(m *machine.Machine, horizon sim.Time) map[string]float64 {
	fs := m.FS()
	var requests, hits, prefetches int64
	var wait, busy sim.Time
	busiest := 0.0
	for i := 0; i < fs.Config().IONodes; i++ {
		n := fs.IONode(i)
		requests += n.Requests()
		hits += n.CacheHits()
		prefetches += n.Prefetches()
		_, w, service := n.QueueStats()
		wait += w
		busiest = max(busiest, service.ToSeconds()/horizon.ToSeconds())
		busy += n.Disk().BusyTime()
	}
	return map[string]float64{
		"workload.jobs":             float64(len(m.JobRecords())),
		"cfs.requests":              float64(requests),
		"cfs.ionode_hit_ratio":      ratio(float64(hits), float64(requests)),
		"cfs.prefetches":            float64(prefetches),
		"cfs.queue_wait_sim_s":      wait.ToSeconds(),
		"cfs.busiest_util":          busiest,
		"disk.ops":                  float64(fs.TotalDiskOps()),
		"disk.busy_sim_s":           busy.ToSeconds(),
		"topo.messages":             float64(m.Network().Delivered()),
		"topo.mb_sent":              float64(m.Network().BytesSent()) / 1e6,
		"trace.records":             float64(m.TraceRecords()),
		"trace.messages":            float64(m.TraceMessages()),
		"trace.records_per_message": ratio(float64(m.TraceRecords()), float64(m.TraceMessages())),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// batchStudy is the in-memory study pipeline of core.RunStudy, staged
// call by call, optionally followed by the paper's cache experiments.
type batchStudy struct {
	mix    *workload.Params // nil: the calibrated NAS mix
	caches bool
}

func (b *batchStudy) op(rec *Recorder, seed uint64, scale float64) (opResult, error) {
	wp, mc := studyParams(seed, scale, b.mix)
	var k *sim.Kernel
	var m *machine.Machine
	rec.Do("machine.new", func() { k = sim.New(); m = machine.New(k, mc) })
	var horizon sim.Time
	rec.Do("workload.install", func() { horizon = workload.NewGenerator(wp).Install(m) })
	rec.Do("sim.run", k.Run)
	var tr *trace.Trace
	rec.Do("trace.finish", func() { tr = m.FinishTracing() })
	var events []trace.Event
	rec.Do("trace.postprocess", func() { events = trace.Postprocess(tr) })
	rec.LiveHeap("trace.live_mb")
	var report *analysis.Report
	rec.Do("analysis.analyze", func() {
		report = analysis.Analyze(tr.Header, events, horizon)
		report.Degradation = m.FaultReport()
	})
	var text string
	rec.Do("analysis.format", func() { text = report.Format() })
	rec.LiveHeap("analysis.live_mb")

	res := opResult{studies: 1, counters: machineCounters(m, horizon)}
	cacheText := ""
	if b.caches {
		var accesses float64
		cacheText, accesses = cacheExperiments(rec, events, int64(tr.Header.BlockBytes), res.counters)
		res.counters["cachesim.accesses"] = accesses
	}
	res.entry = digestOf(text, cacheText)
	res.digest = res.entry
	return res, nil
}

func (b *batchStudy) entry(seed uint64, scale float64) (string, error) {
	r := core.RunStudy(core.Config{Seed: seed, Scale: scale, Workload: b.mix})
	cacheText := ""
	if b.caches {
		cacheText, _ = cacheExperiments(nil, r.Events, r.BlockBytes(), map[string]float64{})
	}
	return digestOf(r.Report.Format(), cacheText), nil
}

// cacheExperiments runs Figure 8 at {1, 10, 50} buffers, the Figure 9
// ladder for every replacement policy at 10 I/O nodes, and the Section
// 4.8 combined configuration, through core's public entry points (which
// fan out over GOMAXPROCS workers). It returns the results as text and
// the number of block accesses simulated, and stores the combined
// configuration's I/O-node hit ratio in counters.
func cacheExperiments(rec *Recorder, events []trace.Event, blockBytes int64, counters map[string]float64) (string, float64) {
	var sb strings.Builder
	var accesses int64
	rec.Do("cachesim.fig8", func() {
		fig8 := core.RunFig8(events, blockBytes)
		sb.WriteString(core.FormatFig8(fig8))
		for _, f := range fig8 {
			for _, j := range f.Jobs {
				accesses += j.Accesses
			}
		}
	})
	rec.Do("cachesim.fig9", func() {
		for _, p := range cachesim.AllPolicies() {
			for _, r := range core.Fig9Sweep(events, blockBytes, 10, p, core.DefaultFig9Buffers()) {
				fmt.Fprintf(&sb, "fig9 %s %d %d %d\n", r.Policy, r.TotalBuffers, r.Accesses, r.Hits)
				accesses += r.Accesses
			}
		}
	})
	rec.Do("cachesim.combined", func() {
		comb := core.RunCombined(events, blockBytes)
		sb.WriteString(core.FormatCombined(comb))
		accesses += comb.IONodeAlone.Accesses + comb.IONodeFiltered.Accesses
		counters["cachesim.hit_ratio"] = comb.IONodeAlone.Rate()
	})
	return sb.String(), float64(accesses)
}

// streamStudy is core.RunStudyStreaming staged call by call: the trace
// spills to a .trc file while the machine runs, then streams back
// through the per-node k-way merge into the incremental analyzer.
type streamStudy struct {
	mix *workload.Params
	dir string
}

// observeBatch is how many replayed events the traced pass hands the
// analyzer per analysis.observe span.
const observeBatch = 4096

func (s *streamStudy) op(rec *Recorder, seed uint64, scale float64) (res opResult, err error) {
	wp, mc := studyParams(seed, scale, s.mix)
	var k *sim.Kernel
	var m *machine.Machine
	rec.Do("machine.new", func() {
		k = sim.New()
		m = machine.NewWith(k, mc, &machine.Arena{})
	})
	var f *os.File
	var w *trace.Writer
	rec.Do("trace.open", func() {
		if f, err = os.CreateTemp(s.dir, "op-*.trc"); err != nil {
			return
		}
		if w, err = trace.NewWriter(f, m.TraceHeader()); err == nil {
			m.SetTraceSink(w)
		}
	})
	if f != nil {
		defer os.Remove(f.Name())
		defer f.Close()
	}
	if err != nil {
		return res, err
	}
	var horizon sim.Time
	rec.Do("workload.install", func() { horizon = workload.NewGenerator(wp).Install(m) })
	rec.Do("sim.run", k.Run)
	rec.Do("trace.finish", func() {
		m.FinishTracing()
		if err = m.TraceSinkErr(); err == nil {
			err = w.Flush()
		}
	})
	if err != nil {
		return res, fmt.Errorf("spilling trace: %w", err)
	}
	o := analysis.NewOnline(m.TraceHeader())
	rec.Do("trace.replay", func() {
		var rd *trace.Reader
		if rd, err = w.Reader(f); err != nil {
			return
		}
		if rec == nil {
			err = rd.Events(func(ev *trace.Event) error { o.Observe(ev); return nil })
			return
		}
		// Traced: hand the analyzer whole batches, each inside its own
		// span, so the merge's self time excludes the analysis.
		batch := make([]trace.Event, 0, observeBatch)
		observe := func() {
			for i := range batch {
				o.Observe(&batch[i])
			}
		}
		err = rd.Events(func(ev *trace.Event) error {
			if batch = append(batch, *ev); len(batch) == observeBatch {
				rec.Do("analysis.observe", observe)
				batch = batch[:0]
			}
			return nil
		})
		rec.Do("analysis.observe", observe)
	})
	if err != nil {
		return res, fmt.Errorf("replaying trace: %w", err)
	}
	rec.LiveHeap("trace.live_mb")
	var report *analysis.Report
	rec.Do("analysis.analyze", func() {
		report = o.Finish(horizon)
		report.Degradation = m.FaultReport()
	})
	var text string
	rec.Do("analysis.format", func() { text = report.Format() })
	rec.LiveHeap("analysis.live_mb")

	res = opResult{studies: 1, counters: machineCounters(m, horizon), entry: digestOf(text)}
	res.counters["trace.spill_mb"] = float64(w.BytesWritten()) / 1e6
	res.digest = res.entry
	return res, nil
}

func (s *streamStudy) entry(seed uint64, scale float64) (string, error) {
	f, err := os.CreateTemp(s.dir, "entry-*.trc")
	if err != nil {
		return "", err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	r, err := core.RunStudyStreaming(core.Config{Seed: seed, Scale: scale, Workload: s.mix}, f)
	if err != nil {
		return "", err
	}
	return digestOf(r.Report.Format()), nil
}

// predictStudy is core.Predict: the analytical twin's untraced walk
// plus its M/G/1 closure.
type predictStudy struct{}

func (predictStudy) op(rec *Recorder, seed uint64, scale float64) (opResult, error) {
	wp, mc := studyParams(seed, scale, nil)
	var p *twin.Prediction
	rec.Do("twin.predict", func() { p = twin.Predict(wp, mc) })
	var text string
	rec.Do("twin.format", func() { text = p.Format() })
	var wait float64
	busiest := 0.0
	for _, n := range p.Nodes {
		wait += n.MeanWait * float64(n.Batches)
		busiest = max(busiest, n.Rho)
	}
	return opResult{
		digest:  digestOf(text),
		entry:   digestOf(text),
		studies: 1,
		counters: map[string]float64{
			"workload.jobs":        float64(p.Jobs),
			"twin.batches":         float64(p.TotalBatches()),
			"cfs.queue_wait_sim_s": wait,
			"cfs.busiest_util":     busiest,
		},
	}, nil
}

func (predictStudy) entry(seed uint64, scale float64) (string, error) {
	return digestOf(core.Predict(core.DefaultConfig(seed, scale)).Format()), nil
}

// storeSweep runs one scenario through the persistent run store: a
// fresh directory drained by two lease workers, a merge, and a cached
// re-run that must find every outcome committed.
type storeSweep struct {
	dir string
	ops int
}

// sweepSeeds is the scenario's seed axis length; with two mixes and
// three machines it makes 6x as many studies.
const sweepSeeds = 3

// sweepSpec is the scenario an op with the given seed runs: the
// calibrated and checkpoint-heavy mixes on the NAS machine, the
// 256-node fat-tree cluster2026 preset, and the NAS machine re-wired as
// a mesh with NVMe drives, with the combined cache experiment on every
// study.
func sweepSpec(seed uint64, scale float64) (*scenario.Spec, error) {
	seeds := make([]string, sweepSeeds)
	for i := range seeds {
		seeds[i] = fmt.Sprint(studySeed(fmt.Sprintf("machines-sweep/%d", seed), i))
	}
	return scenario.Parse([]byte(fmt.Sprintf(`{
		"version": 1,
		"name": "machines-sweep",
		"seeds": [%s],
		"scales": [%g],
		"workers": 2,
		"workloads": [{"name": "calibrated"}, %s],
		"machines": ["nas", "cluster2026", {"preset": "nas", "topology": "mesh", "disk": "nvme"}],
		"cache": {"combined": {}}
	}`, strings.Join(seeds, ", "), scale, checkpointMix)))
}

func (s *storeSweep) op(rec *Recorder, seed uint64, scale float64) (res opResult, err error) {
	spec, err := sweepSpec(seed, scale)
	if err != nil {
		return res, err
	}
	s.ops++
	store := core.StoreConfig{Dir: filepath.Join(s.dir, fmt.Sprintf("op%d", s.ops)), WorkerID: "bench"}
	defer rec.Do("bench.cleanup", func() { os.RemoveAll(store.Dir) })
	var run, merged, rerun *core.ScenarioStoreRun
	rec.Do("store.run", func() { run, err = core.RunScenarioStore(context.Background(), spec, store) })
	if err != nil {
		return res, err
	}
	rec.Do("store.merge", func() { merged, err = core.MergeScenarioStore(spec, store) })
	if err != nil {
		return res, err
	}
	rec.Do("store.rerun", func() { rerun, err = core.RunScenarioStore(context.Background(), spec, store) })
	if err != nil {
		return res, err
	}
	if run.Result == nil || merged.Result == nil || rerun.Result == nil {
		return res, errors.New("store run left studies uncommitted")
	}
	if len(rerun.Run.Ran) != 0 {
		return res, fmt.Errorf("cached re-run executed %d studies", len(rerun.Run.Ran))
	}
	text := merged.Result.Format()
	if rerun.Result.Format() != text {
		return res, errors.New("cached re-run report differs from the merged report")
	}
	outcomes := merged.Result.Sweep.Outcomes
	var records, messages, diskOps, simHours float64
	for _, o := range outcomes {
		records += float64(o.TraceRecords)
		messages += float64(o.TraceMessages)
		diskOps += float64(o.DiskOps)
		simHours += o.Horizon.ToSeconds() / 3600
	}
	return opResult{
		digest:  digestOf(text),
		entry:   digestOf(outcomes[0].ReportText),
		studies: len(outcomes),
		counters: map[string]float64{
			"store.outcomes":            float64(len(outcomes)),
			"trace.records":             records,
			"trace.messages":            messages,
			"trace.records_per_message": ratio(records, messages),
			"disk.ops":                  diskOps,
			"sweep.sim_hours":           simHours,
		},
	}, nil
}

func (s *storeSweep) entry(seed uint64, scale float64) (string, error) {
	spec, err := sweepSpec(seed, scale)
	if err != nil {
		return "", err
	}
	return digestOf(core.RunStudy(core.ScenarioSpecs(spec)[0].Config).Report.Format()), nil
}
