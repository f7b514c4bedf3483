package workload

import (
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/stats"
)

// The archetype registry: a stable name for every job archetype in
// archetypes.go, bound to the Params field that controls how many of
// that archetype a study submits and to the builder that draws one
// such job. Scenario specs build workload mixes by these names instead
// of reaching into Params, and Generator.Install submits every row's
// jobs by the row alone. Adding an archetype takes its job function in
// archetypes.go, a Params count field (the run store fingerprints
// Params field by field, so counts stay fields), and one registry row
// whose builder draws the job's inputs.

// Archetype is one registry entry.
type Archetype struct {
	// Name is the stable registry identifier ("cfd-sim", ...).
	Name string
	// Doc is a one-line description for docs and error messages.
	Doc string
	// Count reads the archetype's full-scale job count from p.
	Count func(p *Params) int
	// SetCount sets the archetype's full-scale job count on p.
	SetCount func(p *Params, n int)
	// build draws one job of this archetype -- its node count, the
	// shared inputs it picks and the private inputs it preloads -- from
	// rng, the job's private stream; job is its submission sequence
	// number. The order of a builder's draws, argument order included,
	// is part of every study's stream.
	build func(in *installer, rng *stats.RNG, job int) machine.JobSpec
}

// registry holds every archetype in declaration order (the order of
// Params' fields). It is also the submission and RNG order: Install
// numbers jobs row by row, and each job's stream is split off by its
// number, so reordering rows changes every study.
var registry = []Archetype{
	{
		Name:     "status-check",
		Doc:      "periodic single-node machine-status job; no CFS I/O, untraced",
		Count:    func(p *Params) int { return p.StatusCheckJobs },
		SetCount: func(p *Params, n int) { p.StatusCheckJobs = n },
		build:    func(*installer, *stats.RNG, int) machine.JobSpec { return StatusCheck() },
	},
	{
		Name:     "system-util",
		Doc:      "untraced single-node system program (ls, cp, ftp)",
		Count:    func(p *Params) int { return p.SystemUtilJobs },
		SetCount: func(p *Params, n int) { p.SystemUtilJobs = n },
		build: func(_ *installer, rng *stats.RNG, job int) machine.JobSpec {
			return SystemUtil(rng, job)
		},
	},
	{
		Name:     "single-reader",
		Doc:      "traced single-node postprocessor: sequential read, small report",
		Count:    func(p *Params) int { return p.SingleReaderJobs },
		SetCount: func(p *Params, n int) { p.SingleReaderJobs = n },
		build: func(in *installer, rng *stats.RNG, job int) machine.JobSpec {
			return SingleReader(rng, job, in.field(rng))
		},
	},
	{
		Name:     "cfd-sim",
		Doc:      "dominant archetype: time-stepping parallel CFD solver",
		Count:    func(p *Params) int { return p.CFDSimJobs },
		SetCount: func(p *Params, n int) { p.CFDSimJobs = n },
		build: func(in *installer, rng *stats.RNG, job int) machine.JobSpec {
			nodes := in.nodes(rng)
			// Shared snapshots: a few from the pool (revisited by later
			// jobs) plus several unique to this job.
			snaps := make([]string, 0, 26)
			for s := 0; s < 1+rng.Intn(2); s++ {
				snaps = append(snaps, in.snaps[rng.Intn(len(in.snaps))])
			}
			for s := 0; s < 16+rng.Intn(13); s++ {
				name := fmt.Sprintf("/job%d/snap.%d", job, s)
				in.preload(name, 50000+rng.Int64n(220000))
				snaps = append(snaps, name)
			}
			// Some runs restart from private per-node state.
			restartPrefix := ""
			if rng.Bool(0.30) {
				restartPrefix = fmt.Sprintf("/job%d/restart", job)
				in.restarts(restartPrefix, nodes, rng, 45000)
			}
			return CFDSim(rng, job, nodes, in.mesh(rng), snaps, restartPrefix, in.bigFields(rng))
		},
	},
	{
		Name:     "restart-run",
		Doc:      "two-node continuation run: private restart in, private output out",
		Count:    func(p *Params) int { return p.RestartRunJobs },
		SetCount: func(p *Params, n int) { p.RestartRunJobs = n },
		build: func(in *installer, rng *stats.RNG, job int) machine.JobSpec {
			prefix := fmt.Sprintf("/job%d/restart", job)
			in.restarts(prefix, 2, rng, 60000)
			return RestartRun(rng, job, prefix)
		},
	},
	{
		Name:     "param-study",
		Doc:      "one small solver per node: big private reads, one-shot result",
		Count:    func(p *Params) int { return p.ParamStudyJobs },
		SetCount: func(p *Params, n int) { p.ParamStudyJobs = n },
		build: func(in *installer, rng *stats.RNG, job int) machine.JobSpec {
			nodes := in.nodes(rng)
			prefix := fmt.Sprintf("/job%d/input", job)
			in.restarts(prefix, nodes, rng, 400000)
			return ParamStudy(rng, job, nodes, prefix)
		},
	},
	{
		Name:     "checkpoint",
		Doc:      "block-aligned interleaved checkpoint writes to shared files",
		Count:    func(p *Params) int { return p.CheckpointJobs },
		SetCount: func(p *Params, n int) { p.CheckpointJobs = n },
		build: func(in *installer, rng *stats.RNG, job int) machine.JobSpec {
			return Checkpoint(rng, job, in.nodes(rng))
		},
	},
	{
		Name:     "row-padded",
		Doc:      "strided reader of padded matrix rows (two interval sizes)",
		Count:    func(p *Params) int { return p.RowPaddedJobs },
		SetCount: func(p *Params, n int) { p.RowPaddedJobs = n },
		build: func(in *installer, rng *stats.RNG, job int) machine.JobSpec {
			return RowPaddedReader(rng, job, in.nodes(rng), in.field(rng))
		},
	},
	{
		Name:     "scratch",
		Doc:      "rare out-of-core job: read-write working file plus deleted temporaries",
		Count:    func(p *Params) int { return p.ScratchJobs },
		SetCount: func(p *Params, n int) { p.ScratchJobs = n },
		build: func(_ *installer, rng *stats.RNG, job int) machine.JobSpec {
			nodes := []int{2, 4, 8}[rng.Intn(3)]
			return Scratch(rng, job, nodes)
		},
	},
	{
		Name:     "bulk-dump",
		Doc:      "the 1 MB data-transfer spike: every node dumps megabyte requests",
		Count:    func(p *Params) int { return p.BulkDumpJobs },
		SetCount: func(p *Params, n int) { p.BulkDumpJobs = n },
		build: func(in *installer, rng *stats.RNG, job int) machine.JobSpec {
			return BulkDump(rng, job, in.nodes(rng))
		},
	},
	{
		Name:     "legacy-shared",
		Doc:      "CFS shared-pointer modes 1 and 3 (<1% of opens)",
		Count:    func(p *Params) int { return p.LegacySharedJobs },
		SetCount: func(p *Params, n int) { p.LegacySharedJobs = n },
		build: func(in *installer, rng *stats.RNG, job int) machine.JobSpec {
			nodes := []int{2, 4, 8}[rng.Intn(3)]
			return LegacyShared(rng, job, nodes, in.field(rng))
		},
	},
	{
		Name:     "untraced-parallel",
		Doc:      "multi-node production job without the instrumented library",
		Count:    func(p *Params) int { return p.UntracedParallJobs },
		SetCount: func(p *Params, n int) { p.UntracedParallJobs = n },
		build: func(in *installer, rng *stats.RNG, job int) machine.JobSpec {
			return UntracedParallel(rng, job, in.nodes(rng), in.untracedSnaps, "")
		},
	},
}

// ArchetypeNames returns every registry name in declaration order.
func ArchetypeNames() []string {
	names := make([]string, len(registry))
	for i, a := range registry {
		names[i] = a.Name
	}
	return names
}

// LookupArchetype resolves a registry name (case-insensitive).
func LookupArchetype(name string) (Archetype, error) {
	for _, a := range registry {
		if strings.EqualFold(name, a.Name) {
			return a, nil
		}
	}
	return Archetype{}, fmt.Errorf("workload: unknown archetype %q (known: %s)",
		name, strings.Join(ArchetypeNames(), ", "))
}

// SetJobs sets one archetype's full-scale job count on p by registry
// name.
func SetJobs(p *Params, name string, n int) error {
	a, err := LookupArchetype(name)
	if err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("workload: negative job count %d for archetype %q", n, name)
	}
	a.SetCount(p, n)
	return nil
}

// Jobs reads one archetype's full-scale job count from p by registry
// name.
func Jobs(p *Params, name string) (int, error) {
	a, err := LookupArchetype(name)
	if err != nil {
		return 0, err
	}
	return a.Count(p), nil
}

// Empty returns a Params with every archetype count zeroed but the
// shared input pools and horizon kept at their calibrated sizes, the
// base for scenario mixes built from scratch. (The pools must stay
// non-empty: archetypes that read shared inputs pick from them.)
func Empty(seed uint64) Params {
	p := Default(seed)
	for _, a := range registry {
		a.SetCount(&p, 0)
	}
	return p
}

// TotalJobs sums every archetype's full-scale count in p.
func TotalJobs(p *Params) int {
	total := 0
	for _, a := range registry {
		total += a.Count(p)
	}
	return total
}
