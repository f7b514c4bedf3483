package workload

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Params configures the synthetic study. All counts are for a
// full-scale (Scale = 1.0) reproduction of the paper's 156-hour,
// 3016-job study; Scale shrinks the job population proportionally
// (and the horizon by sqrt(scale), keeping the machine similarly busy).
type Params struct {
	Seed         uint64
	Scale        float64
	HorizonHours float64

	// Single-node job counts (paper: 2237 single-node jobs, of which
	// one periodic status job accounts for 800+, and only ~41 were
	// traced).
	StatusCheckJobs  int
	SystemUtilJobs   int
	SingleReaderJobs int

	// Multi-node job counts (paper: 779 multi-node jobs, >=429 traced).
	CFDSimJobs         int
	RestartRunJobs     int
	ParamStudyJobs     int
	CheckpointJobs     int
	RowPaddedJobs      int
	ScratchJobs        int
	BulkDumpJobs       int
	LegacySharedJobs   int
	UntracedParallJobs int

	// SharedMeshFiles and SharedFieldFiles size the preloaded pools of
	// shared input data (the Figure 3 clusters near 25 KB and 250 KB).
	SharedMeshFiles  int
	SharedFieldFiles int
}

// Default returns the calibrated full-scale parameters.
func Default(seed uint64) Params {
	return Params{
		Seed:         seed,
		Scale:        1.0,
		HorizonHours: 156,

		StatusCheckJobs:  820,
		SystemUtilJobs:   1376,
		SingleReaderJobs: 41,

		CFDSimJobs:         190,
		RestartRunJobs:     120,
		ParamStudyJobs:     25,
		CheckpointJobs:     25,
		RowPaddedJobs:      15,
		ScratchJobs:        100,
		BulkDumpJobs:       6,
		LegacySharedJobs:   18,
		UntracedParallJobs: 270,

		SharedMeshFiles:  40,
		SharedFieldFiles: 60,
	}
}

// scaled returns max(1, round(n*scale)), or 0 if n is 0.
func scaled(n int, scale float64) int {
	if n == 0 {
		return 0
	}
	s := int(float64(n)*scale + 0.5)
	if s < 1 {
		s = 1
	}
	return s
}

// Generator draws and installs the synthetic workload.
type Generator struct {
	p   Params
	rng *stats.RNG
}

// NewGenerator returns a generator for the given parameters.
func NewGenerator(p Params) *Generator {
	if p.Scale <= 0 {
		panic("workload: Scale must be positive")
	}
	return &Generator{p: p, rng: stats.NewRNG(p.Seed)}
}

// Horizon returns the scaled study duration. It scales linearly with
// the job population so the arrival rate -- and therefore Figure 1's
// concurrency profile -- is scale-invariant.
func (g *Generator) Horizon() sim.Time {
	hours := g.p.HorizonHours * g.p.Scale
	if hours < 4 {
		hours = 4
	}
	if hours > g.p.HorizonHours {
		hours = g.p.HorizonHours
	}
	return sim.Time(hours * float64(sim.Hour))
}

// multiNodeCount draws a power-of-two node count for a parallel job,
// weighted like Figure 2's multi-node population (16-64 nodes carry
// most node-hours).
func (g *Generator) multiNodeCount(rng *stats.RNG) int {
	sizes := []int{2, 4, 8, 16, 32, 64, 128}
	weights := []float64{8, 10, 16, 22, 22, 16, 6}
	return sizes[rng.Pick(weights)]
}

// arrival draws a job submission time: uniform across the horizon,
// modulated by a day/night cycle (daytime jobs arrive three times as
// often), which produces Figure 1's mix of idle and busy periods.
func (g *Generator) arrival(rng *stats.RNG, horizon sim.Time) sim.Time {
	for {
		t := sim.Time(rng.Int64n(int64(horizon)))
		hourOfDay := (t / sim.Hour) % 24
		day := hourOfDay >= 8 && hourOfDay < 20
		if day || rng.Bool(0.25) {
			return t
		}
	}
}

// jobPlan is one job to submit.
type jobPlan struct {
	at   sim.Time
	spec machine.JobSpec
}

// Install preloads the shared input data and submits the whole job
// schedule onto the machine: every registry row's jobs, in registry
// order. It must be called before the kernel runs. It returns the
// study horizon (pass it to analysis.Analyze).
func (g *Generator) Install(m *machine.Machine) sim.Time {
	p := g.p
	horizon := g.Horizon()
	in := g.preloadPools(m)
	var plans []jobPlan
	jobSeq := 0
	for _, a := range registry {
		for i := 0; i < scaled(a.Count(&p), p.Scale); i++ {
			jobSeq++
			rng := g.rng.Split(uint64(jobSeq))
			spec := a.build(in, rng, jobSeq)
			plans = append(plans, jobPlan{at: g.arrival(rng, horizon), spec: spec})
		}
	}

	// Deterministic submission order: by arrival time, then by
	// generation sequence.
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].at < plans[j].at })
	for _, pl := range plans {
		m.SubmitAt(pl.at, pl.spec)
	}
	return horizon
}

// installer is what the archetypes' builders draw a job's inputs from
// during one Install: the machine and the shared input pools (the
// pre-existing data sets).
type installer struct {
	g *Generator
	m *machine.Machine

	meshes, fields, bigs, snaps []string
	untracedSnaps               []string
}

// preloadPools creates the shared input pools on m, before any job is
// built.
func (g *Generator) preloadPools(m *machine.Machine) *installer {
	p := g.p
	in := &installer{g: g, m: m}
	sizeRNG := g.rng.Split(1)
	// Small meshes (~25 KB cluster), broadcast-read by the CFD jobs.
	in.meshes = in.pool(sizeRNG, "/shared/mesh", scaled(p.SharedMeshFiles, p.Scale), 20000, 12000)
	// Medium shared inputs (~250 KB cluster): read whole by
	// single-node tools and row-padded readers.
	in.fields = in.pool(sizeRNG, "/shared/field", scaled(p.SharedFieldFiles, p.Scale), 200000, 150000)
	// Large flow-field files: the read-byte carriers, interleave-read
	// in big chunks and re-read every phase. Successive jobs share
	// them, which (with the per-phase re-reads) is where the I/O-node
	// cache's size-dependence comes from.
	in.bigs = in.pool(sizeRNG, "/shared/big", scaled(p.SharedFieldFiles/4, p.Scale), 6<<20, 8<<20)
	// Shared snapshot pool, interleave-read by the CFD jobs.
	in.snaps = in.pool(sizeRNG, "/shared/snap", scaled(600, p.Scale), 50000, 220000)
	// Inputs for the untraced parallel jobs.
	in.preload("/shared/mesh-u", 24000)
	in.preload("/shared/field-u", 3<<20)
	in.untracedSnaps = make([]string, 6)
	for i := range in.untracedSnaps {
		in.untracedSnaps[i] = fmt.Sprintf("/shared/snap-u%d", i)
		in.preload(in.untracedSnaps[i], 400000)
	}
	return in
}

// preload creates a file of the given size, as data written before
// tracing began.
func (in *installer) preload(name string, size int64) {
	if err := in.m.Preload(name, size); err != nil {
		panic(err)
	}
}

// pool preloads n shared files prefix0, prefix1, ..., each of base
// plus a uniform draw below spread bytes, and returns their names.
func (in *installer) pool(rng *stats.RNG, prefix string, n int, base, spread int64) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
		in.preload(names[i], base+rng.Int64n(spread))
	}
	return names
}

// restarts preloads the per-node private input files prefix.0 to
// prefix.(nodes-1) a job will read (written by predecessor runs
// before tracing began).
func (in *installer) restarts(prefix string, nodes int, rng *stats.RNG, meanBytes int64) {
	for r := 0; r < nodes; r++ {
		in.preload(fmt.Sprintf("%s.%d", prefix, r), meanBytes/2+rng.Int64n(meanBytes))
	}
}

// nodes draws a parallel job's node count from the Figure 2
// distribution, clamped to the machine being simulated, so the
// calibrated mix runs unchanged on smaller presets (the clamp never
// fires on the 128-node NAS machine and consumes no extra
// randomness).
func (in *installer) nodes(rng *stats.RNG) int {
	return min(in.g.multiNodeCount(rng), in.m.ComputeNodes())
}

// mesh and field pick one shared input from their pools.
func (in *installer) mesh(rng *stats.RNG) string  { return in.meshes[rng.Intn(len(in.meshes))] }
func (in *installer) field(rng *stats.RNG) string { return in.fields[rng.Intn(len(in.fields))] }

// bigFields picks the two or three large flow-field files a CFD job
// re-reads every phase.
func (in *installer) bigFields(rng *stats.RNG) []string {
	n := 2 + rng.Intn(2)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, in.bigs[rng.Intn(len(in.bigs))])
	}
	return out
}
