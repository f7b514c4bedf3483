package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// TestArenaStudyDeterminism pins the arena-reuse contract directly:
// the first and the Nth study on one worker arena both match a cold
// RunStudy byte for byte, cache text included, and none of them keeps
// its merged stream in the arena.
func TestArenaStudyDeterminism(t *testing.T) {
	spec := StudySpec{Label: "seed=42", Config: DefaultConfig(42, MinScale)}
	plan := testCachePlan(t)
	cold := RunStudy(spec.Config)
	want := StudyOutcome{
		Spec:          spec,
		Done:          true,
		ReportText:    cold.Report.Format(),
		CacheText:     cacheExperimentText(plan, cold.Events, cold.BlockBytes()),
		Header:        cold.Header,
		Horizon:       cold.Horizon,
		EventCount:    len(cold.Events),
		TraceRecords:  cold.TraceRecords,
		TraceMessages: cold.TraceMessages,
		DiskOps:       cold.DiskOps,
	}

	a := newArena()
	for round := 0; round < 3; round++ {
		label := fmt.Sprintf("arena round %d", round)
		sameOutcome(t, runSpec(a, plan, spec), want, label)
		noKeptStream(t, a, label)
	}
}

// TestArenaDifferentSeedsAfterRecycle runs different seeds on one
// worker arena, which gets each study's trace and files back before
// the next, and checks each against its own cold run, guarding against
// state leaking from one study into the next.
func TestArenaDifferentSeedsAfterRecycle(t *testing.T) {
	a := newArena()
	for seed := uint64(1); seed <= 3; seed++ {
		spec := StudySpec{Config: DefaultConfig(seed, MinScale)}
		warm := runSpec(a, nil, spec).ReportText
		if cold := RunStudy(spec.Config).Report.Format(); warm != cold {
			t.Fatalf("seed %d: warm arena report differs from cold run (first diff near byte %d)", seed, firstDiff(warm, cold))
		}
	}
}

// TestArenaAcrossStudyKinds drives one worker arena through every kind
// of study a sweep or scenario may hand it -- the NAS, mini and
// cluster2026 machines, NAS rewired as a mesh with NVMe drives, NAS
// under the dying-disk fault preset, and a replay of a spilled .trc --
// each with and without a cache plan, and holds every study to its
// cold run on a fresh arena: report text, counters and cache text. No
// study, cold or warm, keeps its merged stream in the arena. A pool
// that carries state from one study into the next, or from one machine
// shape to another, fails it.
func TestArenaAcrossStudyKinds(t *testing.T) {
	machines := ScenarioSpecs(mustParse(t, `{
		"version": 1, "name": "arena-kinds", "seeds": [5], "scales": [0.01],
		"machines": ["nas", "cluster2026", "mini", {"preset": "nas", "topology": "mesh", "disk": "nvme"}]
	}`))
	dying, err := faults.Preset("dying-disk")
	if err != nil {
		t.Fatal(err)
	}
	faulted := StudySpec{Label: "dying-disk", Config: Config{Seed: 6, Scale: MinScale, Faults: &dying}}
	path := filepath.Join(t.TempDir(), "spilled.trc")
	err = trace.WriteFile(path, func(f *os.File) error {
		_, err := RunStudyStreaming(Config{Seed: 7, Scale: MinScale}, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	type kind struct {
		label string
		run   func(a *arena, plan *scenario.ResolvedCache) (StudyOutcome, error)
	}
	simulated := func(spec StudySpec) kind {
		return kind{spec.Label, func(a *arena, plan *scenario.ResolvedCache) (StudyOutcome, error) {
			return runSpec(a, plan, spec), nil
		}}
	}
	var kinds []kind
	for _, spec := range append(machines, faulted) {
		kinds = append(kinds, simulated(spec))
	}
	kinds = append(kinds, kind{"replay", func(a *arena, plan *scenario.ResolvedCache) (StudyOutcome, error) {
		return replayStudy(a, path, plan)
	}})

	plan := testCachePlan(t)
	colds := make([]StudyOutcome, len(kinds))
	for i, k := range kinds {
		a := newArena()
		out, err := k.run(a, plan)
		if err != nil {
			t.Fatalf("%s: %v", k.label, err)
		}
		noKeptStream(t, a, k.label+" (cold)")
		colds[i] = out
	}

	// Two passes over every kind, the cache plan alternating between
	// studies and flipped in the second pass: each kind runs with and
	// without it, after a study of another shape.
	warm := newArena()
	for pass := 0; pass < 2; pass++ {
		for i, k := range kinds {
			withPlan := (i+pass)%2 == 0
			p, want := plan, colds[i]
			if !withPlan {
				p, want.CacheText = nil, ""
			}
			label := fmt.Sprintf("pass %d: %s (cache plan %v)", pass, k.label, withPlan)
			got, err := k.run(warm, p)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameOutcome(t, got, want, label)
			noKeptStream(t, warm, label)
		}
	}
}

// testCachePlan is a small plan with every cache experiment: Fig 8, a
// two-policy Fig 9 ladder and the combined configuration.
func testCachePlan(t *testing.T) *scenario.ResolvedCache {
	t.Helper()
	return mustParse(t, `{
		"version": 1, "name": "plan", "seeds": [1],
		"cache": {
			"fig8": {"buffers": [1, 10]},
			"fig9": {"policies": ["LRU", "FIFO"], "ioNodes": [10], "buffers": [125, 1000]},
			"combined": {}
		}
	}`).CachePlan()
}

func mustParse(t testing.TB, doc string) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// sameOutcome compares two finished outcomes field by field.
func sameOutcome(t *testing.T, got, want StudyOutcome, label string) {
	t.Helper()
	if got.ReportText != want.ReportText {
		t.Fatalf("%s: report differs from the cold run (first diff near byte %d)", label, firstDiff(got.ReportText, want.ReportText))
	}
	if got.CacheText != want.CacheText {
		t.Fatalf("%s: cache text differs from the cold run:\n%s\nwant:\n%s", label, got.CacheText, want.CacheText)
	}
	got.ReportText, got.CacheText, want.ReportText, want.CacheText = "", "", "", ""
	if got != want {
		t.Fatalf("%s: outcome differs from the cold run:\ngot  %+v\nwant %+v", label, got, want)
	}
}

// BenchmarkArenaStudySteadyState measures what a worker's arena buys:
// one sweep-worker study (runSpec at seed 42, scale 0.05) on a fresh
// arena per iteration (cold) and on one arena warmed before the timer
// starts (warm), with no cache plan and with the combined experiment
// (the -combined rows, the plan machines-sweep runs). B/op shows the
// allocation the pools remove, ns/op whether that saves any time; the
// -combined rows' B/op also counts the experiment, which observes the
// merge pass instead of keeping the stream.
func BenchmarkArenaStudySteadyState(b *testing.B) {
	spec := StudySpec{Config: DefaultConfig(42, 0.05)}
	combined := mustParse(b, `{"version": 1, "name": "plan", "seeds": [1], "cache": {"combined": {}}}`).CachePlan()
	for _, row := range []struct {
		suffix string
		plan   *scenario.ResolvedCache
	}{{"", nil}, {"-combined", combined}} {
		b.Run("cold"+row.suffix, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runSpec(newArena(), row.plan, spec)
			}
		})
		b.Run("warm"+row.suffix, func(b *testing.B) {
			a := newArena()
			runSpec(a, row.plan, spec) // warm the pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSpec(a, row.plan, spec)
			}
		})
	}
}
