package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cachesim"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// TestStudyPipelinesAgree is the oracle for the one study pipeline
// (simulate, then analyze) on the NAS, read-mostly and checkpoint-heavy
// mixes:
//
//   - RunStudy, the sweep worker (runSpec) on a warm arena,
//     RunStudyStreaming and RunSweep outcomes at 1 and 2 workers give
//     the same report text and counters;
//   - RunStudy's stream equals Postprocess, and its report equals
//     Analyze over that stream (neither shares analyze's batching);
//   - the cache experiments observing a sweep's merge pass, the warm
//     arena's and a replay of the spilled .trc read the same as the
//     slice entry points over RunStudy's Events, and the warm arena
//     keeps no more than one batch of events.
func TestStudyPipelinesAgree(t *testing.T) {
	var specs []StudySpec
	mixes := []Config{{}} // the NAS mix
	for _, name := range []string{"read-mostly", "checkpoint-heavy"} {
		mixes = append(mixes, ScenarioSpecs(loadCorpusSpec(t, filepath.Join(corpusDir, name+".json")))[0].Config)
	}
	for m, mix := range mixes {
		for _, p := range []struct {
			seed  uint64
			scale float64
		}{{1, 0.01}, {2, 0.03}} {
			cfg := mix
			cfg.Seed, cfg.Scale = p.seed, p.scale
			specs = append(specs, StudySpec{Label: fmt.Sprintf("mix=%d seed=%d", m, p.seed), Config: cfg})
		}
	}

	// Spill every study to a .trc (RunStudyStreaming), and replay those
	// files under a cache plan: Fig 8, a two-policy Fig 9 ladder and
	// the combined experiment.
	dir := t.TempDir()
	streamed := make([]*StreamResult, len(specs))
	paths := make([]string, len(specs))
	for i, spec := range specs {
		paths[i] = filepath.Join(dir, fmt.Sprintf("study%d.trc", i))
		err := trace.WriteFile(paths[i], func(f *os.File) (err error) {
			streamed[i], err = RunStudyStreaming(spec.Config, f)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	traces, err := json.Marshal(paths)
	if err != nil {
		t.Fatal(err)
	}
	replaySpec, err := scenario.Parse([]byte(fmt.Sprintf(`{
		"version": 1, "name": "pipelines", "workers": 2,
		"replay": {"traces": %s},
		"cache": {
			"fig8": {"buffers": [1, 10]},
			"fig9": {"policies": ["LRU", "FIFO"], "ioNodes": [10], "buffers": [125, 1000, 4000]},
			"combined": {}
		}
	}`, traces)))
	if err != nil {
		t.Fatal(err)
	}
	plan := replaySpec.CachePlan()
	replay, err := RunScenario(context.Background(), replaySpec)
	if err != nil {
		t.Fatal(err)
	}

	// One sweep per worker count, the second with the cache plan.
	sweeps := []*SweepResult{
		RunSweep(context.Background(), SweepConfig{Specs: specs, Workers: 1}),
		RunSweep(context.Background(), SweepConfig{Specs: specs, Workers: 2, Cache: plan}),
	}

	arena := newArena()
	warm := specs[0]
	warm.Config.Seed = 3
	runSpec(arena, plan, warm)
	for i, spec := range specs {
		label := spec.Label
		cold := RunStudy(spec.Config)
		want := cold.Report.Format()
		wantCache := cacheExperimentText(plan, cold.Events, cold.BlockBytes())

		// The kept stream and the batched analysis against the batch
		// entry points, which share no code with analyze's batching.
		sameEvents(t, cold.Events, trace.Postprocess(cold.Trace), label+": RunStudy events vs Postprocess")
		batch := analysis.Analyze(cold.Header, cold.Events, cold.Horizon)
		batch.Degradation = cold.Report.Degradation
		if got := batch.Format(); got != want {
			t.Fatalf("%s: RunStudy report differs from Analyze over its events (first diff near byte %d)", label, firstDiff(got, want))
		}

		sameOutcome(t, runSpec(arena, plan, spec), StudyOutcome{
			Spec:          spec,
			Done:          true,
			ReportText:    want,
			CacheText:     wantCache,
			Header:        cold.Header,
			Horizon:       cold.Horizon,
			EventCount:    len(cold.Events),
			TraceRecords:  cold.TraceRecords,
			TraceMessages: cold.TraceMessages,
			DiskOps:       cold.DiskOps,
		}, label+": warm arena vs RunStudy")
		noKeptStream(t, arena, label+": warm arena")

		s := streamed[i]
		if got := s.Report.Format(); got != want {
			t.Fatalf("%s: streaming report differs from RunStudy (first diff near byte %d)", label, firstDiff(got, want))
		}
		if s.Header != cold.Header || s.Horizon != cold.Horizon || s.EventCount != int64(len(cold.Events)) ||
			s.TraceBlocks != int64(len(cold.Trace.Blocks)) || s.TraceRecords != cold.TraceRecords ||
			s.TraceMessages != cold.TraceMessages || s.DiskOps != cold.DiskOps {
			t.Fatalf("%s: streaming counters differ from RunStudy", label)
		}

		for _, sweep := range sweeps {
			o := &sweep.Outcomes[i]
			if o.ReportText != want {
				t.Fatalf("%s: %d-worker sweep report differs from RunStudy (first diff near byte %d)", label, sweep.Workers, firstDiff(o.ReportText, want))
			}
			if o.Header != cold.Header || o.Horizon != cold.Horizon || o.EventCount != len(cold.Events) ||
				o.TraceRecords != cold.TraceRecords || o.TraceMessages != cold.TraceMessages || o.DiskOps != cold.DiskOps {
				t.Fatalf("%s: %d-worker sweep counters differ from RunStudy", label, sweep.Workers)
			}
		}
		if got := sweeps[0].Outcomes[i].CacheText; got != "" {
			t.Fatalf("%s: sweep without a cache plan produced cache text:\n%s", label, got)
		}
		if got := sweeps[1].Outcomes[i].CacheText; got != wantCache {
			t.Fatalf("%s: sweep cache text differs from the experiments over RunStudy's events:\n%s\nwant:\n%s", label, got, wantCache)
		}
		if got := replay.Sweep.Outcomes[i].CacheText; got != wantCache {
			t.Fatalf("%s: replayed .trc cache text differs from the experiments over RunStudy's events:\n%s\nwant:\n%s", label, got, wantCache)
		}
	}
}

func sameEvents(t *testing.T, got, want []trace.Event, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d differs:\ngot  %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

// noKeptStream fails when a study left more than one analysis batch of
// event storage in the arena: only RunStudy keeps its merged stream,
// and a cache plan's experiments observe the merge pass instead.
func noKeptStream(t *testing.T, a *arena, label string) {
	t.Helper()
	if cap(a.events) > analyzeBatch {
		t.Fatalf("%s: the arena holds storage for %d events, more than one %d-event batch", label, cap(a.events), analyzeBatch)
	}
}

// cacheExperimentText is the reference for a study's cache text: the
// plan's experiments through the public slice entry points over a kept
// stream, rendered as a cacheRun renders its results.
func cacheExperimentText(plan *scenario.ResolvedCache, events []trace.Event, blockBytes int64) string {
	var fig8 []Fig8Result
	if plan.Fig8Buffers != nil {
		fig8 = RunFig8Buffers(events, blockBytes, plan.Fig8Buffers)
	}
	var fig9 [][]cachesim.IONodeResult
	if plan.Fig9 != nil {
		for _, ioNodes := range plan.Fig9.IONodes {
			for _, p := range plan.Fig9.Policies {
				fig9 = append(fig9, Fig9Sweep(events, blockBytes, ioNodes, p, plan.Fig9.Buffers))
			}
		}
	}
	var combined []cachesim.CombinedResult
	if plan.Combined != nil {
		for _, p := range plan.Combined.Policies {
			combined = append(combined, cachesim.CombinedPolicy(events, blockBytes,
				plan.Combined.IONodes, plan.Combined.BuffersPerIONode, p))
		}
	}
	return formatCacheText(plan, fig8, fig9, combined)
}
