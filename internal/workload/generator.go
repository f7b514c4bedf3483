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
// schedule onto the machine. It must be called before the kernel runs.
// It returns the study horizon (pass it to analysis.Analyze).
func (g *Generator) Install(m *machine.Machine) sim.Time {
	p := g.p
	horizon := g.Horizon()

	// --- Shared input pools (pre-existing data sets). -------------
	meshNames := make([]string, 0, scaled(p.SharedMeshFiles, p.Scale))
	sizeRNG := g.rng.Split(1)
	for i := 0; i < scaled(p.SharedMeshFiles, p.Scale); i++ {
		name := fmt.Sprintf("/shared/mesh%d", i)
		size := int64(20000 + sizeRNG.Int64n(12000)) // ~25 KB cluster
		if err := m.Preload(name, size); err != nil {
			panic(err)
		}
		meshNames = append(meshNames, name)
	}
	// Medium shared inputs (~250 KB cluster): read whole by
	// single-node tools and row-padded readers.
	fieldNames := make([]string, 0, scaled(p.SharedFieldFiles, p.Scale))
	for i := 0; i < scaled(p.SharedFieldFiles, p.Scale); i++ {
		name := fmt.Sprintf("/shared/field%d", i)
		size := int64(200000 + sizeRNG.Int64n(150000))
		if err := m.Preload(name, size); err != nil {
			panic(err)
		}
		fieldNames = append(fieldNames, name)
	}
	// Large flow-field files: the read-byte carriers, interleave-read
	// in big chunks and re-read every phase. Successive jobs share
	// them, which (with the per-phase re-reads) is where the I/O-node
	// cache's size-dependence comes from.
	bigNames := make([]string, 0, scaled(p.SharedFieldFiles/4, p.Scale))
	for i := 0; i < scaled(p.SharedFieldFiles/4, p.Scale); i++ {
		name := fmt.Sprintf("/shared/big%d", i)
		size := int64(6<<20) + sizeRNG.Int64n(8<<20)
		if err := m.Preload(name, size); err != nil {
			panic(err)
		}
		bigNames = append(bigNames, name)
	}
	// Shared snapshot pool, interleave-read by the CFD jobs.
	snapNames := make([]string, 0, scaled(600, p.Scale))
	for i := 0; i < scaled(600, p.Scale); i++ {
		name := fmt.Sprintf("/shared/snap%d", i)
		size := int64(50000) + sizeRNG.Int64n(220000)
		if err := m.Preload(name, size); err != nil {
			panic(err)
		}
		snapNames = append(snapNames, name)
	}
	// Inputs for the untraced parallel jobs.
	if err := m.Preload("/shared/mesh-u", 24000); err != nil {
		panic(err)
	}
	if err := m.Preload("/shared/field-u", 3<<20); err != nil {
		panic(err)
	}
	untracedSnaps := make([]string, 6)
	for i := range untracedSnaps {
		untracedSnaps[i] = fmt.Sprintf("/shared/snap-u%d", i)
		if err := m.Preload(untracedSnaps[i], 400000); err != nil {
			panic(err)
		}
	}

	pickMesh := func(rng *stats.RNG) string { return meshNames[rng.Intn(len(meshNames))] }
	pickField := func(rng *stats.RNG) string { return fieldNames[rng.Intn(len(fieldNames))] }
	pickBigs := func(rng *stats.RNG) []string {
		n := 2 + rng.Intn(2)
		out := make([]string, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, bigNames[rng.Intn(len(bigNames))])
		}
		return out
	}

	var plans []jobPlan
	jobSeq := 0
	// Node counts are drawn from the Figure 2 distribution and then
	// clamped to the machine being simulated, so the calibrated mix
	// runs unchanged on smaller presets (the clamp never fires on the
	// 128-node NAS machine and consumes no extra randomness).
	maxNodes := m.ComputeNodes()
	drawNodes := func(rng *stats.RNG) int {
		n := g.multiNodeCount(rng)
		if n > maxNodes {
			n = maxNodes
		}
		return n
	}
	add := func(spec machine.JobSpec, rng *stats.RNG) {
		plans = append(plans, jobPlan{at: g.arrival(rng, horizon), spec: spec})
	}
	// preloadRestarts creates the per-node private input files a job
	// will read (written by predecessor runs before tracing began).
	preloadRestarts := func(prefix string, nodes int, rng *stats.RNG, meanBytes int64) {
		for r := 0; r < nodes; r++ {
			size := meanBytes/2 + rng.Int64n(meanBytes)
			if err := m.Preload(fmt.Sprintf("%s.%d", prefix, r), size); err != nil {
				panic(err)
			}
		}
	}

	// --- Single-node population. -----------------------------------
	for i := 0; i < scaled(p.StatusCheckJobs, p.Scale); i++ {
		jobSeq++
		add(StatusCheck(), g.rng.Split(uint64(jobSeq)))
	}
	for i := 0; i < scaled(p.SystemUtilJobs, p.Scale); i++ {
		jobSeq++
		rng := g.rng.Split(uint64(jobSeq))
		add(SystemUtil(rng, jobSeq), rng)
	}
	for i := 0; i < scaled(p.SingleReaderJobs, p.Scale); i++ {
		jobSeq++
		rng := g.rng.Split(uint64(jobSeq))
		add(SingleReader(rng, jobSeq, pickField(rng)), rng)
	}

	// --- Traced parallel population. --------------------------------
	for i := 0; i < scaled(p.CFDSimJobs, p.Scale); i++ {
		jobSeq++
		rng := g.rng.Split(uint64(jobSeq))
		nodes := drawNodes(rng)
		// Shared snapshots: a few from the pool (revisited by later
		// jobs) plus several unique to this job.
		snaps := make([]string, 0, 26)
		for s := 0; s < 1+rng.Intn(2); s++ {
			snaps = append(snaps, snapNames[rng.Intn(len(snapNames))])
		}
		for s := 0; s < 16+rng.Intn(13); s++ {
			name := fmt.Sprintf("/job%d/snap.%d", jobSeq, s)
			size := int64(50000) + rng.Int64n(220000)
			if err := m.Preload(name, size); err != nil {
				panic(err)
			}
			snaps = append(snaps, name)
		}
		// Some runs restart from private per-node state.
		restartPrefix := ""
		if rng.Bool(0.30) {
			restartPrefix = fmt.Sprintf("/job%d/restart", jobSeq)
			preloadRestarts(restartPrefix, nodes, rng, 45000)
		}
		add(CFDSim(rng, jobSeq, nodes, pickMesh(rng), snaps, restartPrefix, pickBigs(rng)), rng)
	}
	for i := 0; i < scaled(p.RestartRunJobs, p.Scale); i++ {
		jobSeq++
		rng := g.rng.Split(uint64(jobSeq))
		prefix := fmt.Sprintf("/job%d/restart", jobSeq)
		preloadRestarts(prefix, 2, rng, 60000)
		add(RestartRun(rng, jobSeq, prefix), rng)
	}
	for i := 0; i < scaled(p.ParamStudyJobs, p.Scale); i++ {
		jobSeq++
		rng := g.rng.Split(uint64(jobSeq))
		nodes := drawNodes(rng)
		prefix := fmt.Sprintf("/job%d/input", jobSeq)
		preloadRestarts(prefix, nodes, rng, 400000)
		add(ParamStudy(rng, jobSeq, nodes, prefix), rng)
	}
	for i := 0; i < scaled(p.CheckpointJobs, p.Scale); i++ {
		jobSeq++
		rng := g.rng.Split(uint64(jobSeq))
		add(Checkpoint(rng, jobSeq, drawNodes(rng)), rng)
	}
	for i := 0; i < scaled(p.RowPaddedJobs, p.Scale); i++ {
		jobSeq++
		rng := g.rng.Split(uint64(jobSeq))
		add(RowPaddedReader(rng, jobSeq, drawNodes(rng), pickField(rng)), rng)
	}
	for i := 0; i < scaled(p.ScratchJobs, p.Scale); i++ {
		jobSeq++
		rng := g.rng.Split(uint64(jobSeq))
		nodes := []int{2, 4, 8}[rng.Intn(3)]
		add(Scratch(rng, jobSeq, nodes), rng)
	}
	for i := 0; i < scaled(p.BulkDumpJobs, p.Scale); i++ {
		jobSeq++
		rng := g.rng.Split(uint64(jobSeq))
		add(BulkDump(rng, jobSeq, drawNodes(rng)), rng)
	}
	for i := 0; i < scaled(p.LegacySharedJobs, p.Scale); i++ {
		jobSeq++
		rng := g.rng.Split(uint64(jobSeq))
		nodes := []int{2, 4, 8}[rng.Intn(3)]
		add(LegacyShared(rng, jobSeq, nodes, pickField(rng)), rng)
	}
	for i := 0; i < scaled(p.UntracedParallJobs, p.Scale); i++ {
		jobSeq++
		rng := g.rng.Split(uint64(jobSeq))
		nodes := drawNodes(rng)
		add(UntracedParallel(rng, jobSeq, nodes, untracedSnaps, ""), rng)
	}

	// Deterministic submission order: by arrival time, then by
	// generation sequence.
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].at < plans[j].at })
	for _, pl := range plans {
		m.SubmitAt(pl.at, pl.spec)
	}
	return horizon
}
