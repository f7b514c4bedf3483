package core

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// update regenerates the scenario golden corpus:
//
//	go test -run TestScenarioCorpusGolden -update ./internal/core/
var update = flag.Bool("update", false, "rewrite testdata/scenarios golden reports")

// corpusDir is the shared scenario corpus at the repository root.
const corpusDir = "../../testdata/scenarios"

// corpusPaths returns every scenario spec in the corpus, sorted.
func corpusPaths(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 8 {
		t.Fatalf("scenario corpus has only %d specs, want >= 8", len(paths))
	}
	sort.Strings(paths)
	return paths
}

// loadCorpusSpec parses one corpus spec and enforces the corpus
// contract: every scenario must run at scale <= 1% so the whole
// suite stays test-fast.
func loadCorpusSpec(t *testing.T, path string) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Load(path)
	if err != nil {
		t.Fatalf("loading %s: %v", path, err)
	}
	for _, sc := range spec.ScaleList() {
		if sc > MinScale {
			t.Fatalf("%s: scale %v exceeds the corpus bound %v", path, sc, MinScale)
		}
	}
	if base := strings.TrimSuffix(filepath.Base(path), ".json"); spec.Name != base {
		t.Fatalf("%s: spec name %q differs from file name %q", path, spec.Name, base)
	}
	return spec
}

// TestScenarioCorpusGolden runs every corpus scenario and
// byte-compares its formatted report against the checked-in golden.
// This is the conformance suite: any behavioral drift anywhere in
// the pipeline -- kernel, CFS, tracing, analysis, sweep merging,
// cache policies, formatting -- shows up as a corpus diff.
// Regenerate after an intentional change with -update.
func TestScenarioCorpusGolden(t *testing.T) {
	for _, path := range corpusPaths(t) {
		path := path
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			spec := loadCorpusSpec(t, path)
			res, err := RunScenario(context.Background(), spec)
			if err != nil {
				t.Fatalf("running %s: %v", name, err)
			}
			got := res.Format()
			goldenPath := filepath.Join(corpusDir, "golden", name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("reading golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Fatalf("scenario %s diverged from its golden report; if intentional, regenerate with -update.\ngot %d bytes, want %d bytes\nfirst difference near byte %d",
					name, len(got), len(want), firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestScenarioCorpusWorkerInvariance extends the sweep engine's
// worker-count contract to every corpus scenario: the full formatted
// report (sweep rows, aggregates, and every cache experiment) must be
// byte-identical at 1, 2, and 8 workers.
func TestScenarioCorpusWorkerInvariance(t *testing.T) {
	for _, path := range corpusPaths(t) {
		path := path
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var baseline string
			for _, workers := range []int{1, 2, 8} {
				spec := loadCorpusSpec(t, path)
				spec.Workers = workers
				res, err := RunScenario(context.Background(), spec)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := res.Format()
				if workers == 1 {
					baseline = got
					continue
				}
				if got != baseline {
					t.Fatalf("scenario %s output differs between 1 and %d workers (first diff near byte %d)",
						name, workers, firstDiff(got, baseline))
				}
			}
		})
	}
}

// TestScenarioCorpusRegistryLeaseSplit extends the lease store's
// split contract to the registry corpus scenarios: lowering a
// non-default machine axis (fat-tree + NVMe cluster2026, the nas
// preset re-wired onto a mesh) onto the store and draining it with two
// concurrent lease workers of distinct identities must reconstruct the
// checked-in golden byte for byte, in both workers' merged results.
// This pins that the registry overrides fold into the study
// fingerprints consistently across processes -- a worker that hashed
// the axis differently would refuse the manifest or run the wrong
// specs.
func TestScenarioCorpusRegistryLeaseSplit(t *testing.T) {
	for _, name := range []string{"fig8-cluster2026", "mesh-nvme"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(corpusDir, name+".json")
			want, err := os.ReadFile(filepath.Join(corpusDir, "golden", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			workers := []string{"ra", "rb"}
			runs := make([]*ScenarioStoreRun, len(workers))
			errs := make([]error, len(workers))
			var wg sync.WaitGroup
			for i, id := range workers {
				spec := loadCorpusSpec(t, path)
				spec.Workers = 1
				wg.Add(1)
				go func(i int, id string) {
					defer wg.Done()
					runs[i], errs[i] = RunScenarioStore(context.Background(), spec,
						StoreConfig{Dir: dir, WorkerID: id})
				}(i, id)
			}
			wg.Wait()
			ran := 0
			for i, id := range workers {
				if errs[i] != nil {
					t.Fatalf("worker %s: %v", id, errs[i])
				}
				ran += len(runs[i].Run.Ran)
				if runs[i].Result == nil {
					t.Fatalf("worker %s produced no merged result (missing %v)", id, runs[i].Merge.Missing)
				}
				if got := runs[i].Result.Format(); got != string(want) {
					t.Fatalf("worker %s: split %s differs from its golden (first diff near byte %d)",
						id, name, firstDiff(got, string(want)))
				}
			}
			if total := len(runs[0].Merge.Result.Outcomes); ran != total {
				t.Fatalf("workers ran %d studies between them, want %d (each exactly once)", ran, total)
			}
		})
	}
}

// TestScenarioFig8ByteIdentical is the acceptance pin: the fig8
// corpus scenario must reproduce the pre-scenario Figure 8 pipeline
// (RunStudy + RunFig8 + the shared formatter) byte for byte, and its
// sweep row must match a plain hand-built sweep of the same config.
func TestScenarioFig8ByteIdentical(t *testing.T) {
	spec := loadCorpusSpec(t, filepath.Join(corpusDir, "fig8.json"))
	res, err := RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Format()

	study := RunStudy(DefaultConfig(42, 0.01))
	fig8 := FormatFig8(RunFig8(study.Events, study.BlockBytes()))
	if !strings.Contains(got, fig8) {
		t.Fatalf("scenario fig8 report does not contain the legacy Figure 8 output byte-for-byte.\nlegacy:\n%s\nscenario:\n%s", fig8, got)
	}

	legacySweep := RunSweep(context.Background(), SweepConfig{
		Specs: CrossSpecs([]uint64{42}, []float64{0.01}),
	})
	if !strings.Contains(got, legacySweep.Format()) {
		t.Fatal("scenario fig8 sweep section differs from the equivalent CrossSpecs sweep")
	}
}

// TestScenarioSpecsLowering pins the lowering order and labels: seeds
// outermost, then scales, mixes, machines; axis labels only for axes
// the spec declares.
func TestScenarioSpecsLowering(t *testing.T) {
	spec, err := scenario.Parse([]byte(`{
		"version": 1, "name": "lowering",
		"seeds": [1, 2], "scales": [0.01],
		"machines": ["nas", "mini"],
		"workloads": [{"name": "a", "base": "calibrated"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	specs := ScenarioSpecs(spec)
	want := []string{
		"seed=1 scale=0.01 wl=a mc=nas",
		"seed=1 scale=0.01 wl=a mc=mini",
		"seed=2 scale=0.01 wl=a mc=nas",
		"seed=2 scale=0.01 wl=a mc=mini",
	}
	if len(specs) != len(want) {
		t.Fatalf("%d specs, want %d", len(specs), len(want))
	}
	for i := range want {
		if specs[i].Label != want[i] {
			t.Fatalf("spec %d label %q, want %q", i, specs[i].Label, want[i])
		}
	}
	if specs[1].Config.Machine == nil || specs[1].Config.Machine.ComputeNodes != 32 {
		t.Fatal("mini machine config not threaded through lowering")
	}
	if specs[0].Config.Machine != nil {
		t.Fatal("nas preset should lower to the nil default machine")
	}

	// An axis-free spec gets plain CrossSpecs-style labels.
	plain, err := scenario.Parse([]byte(`{"version": 1, "name": "plain", "seeds": [42]}`))
	if err != nil {
		t.Fatal(err)
	}
	ps := ScenarioSpecs(plain)
	if len(ps) != 1 || ps[0].Label != "seed=42 scale=0.01" {
		t.Fatalf("axis-free labels wrong: %+v", ps)
	}
}

// TestRunScenarioSeedStamping: one mix served every seed, so the
// studies must actually differ by seed (the engine stamps Config.Seed
// onto the shared workload params).
func TestRunScenarioSeedStamping(t *testing.T) {
	spec, err := scenario.Parse([]byte(`{
		"version": 1, "name": "stamp", "seeds": [1, 2], "scales": [0.01],
		"workloads": [{"name": "m", "base": "calibrated"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweep.Outcomes) != 2 {
		t.Fatalf("%d outcomes", len(res.Sweep.Outcomes))
	}
	if res.Sweep.Outcomes[0].ReportText == res.Sweep.Outcomes[1].ReportText {
		t.Fatal("seed 1 and seed 2 produced identical studies: the mix's seed was not stamped")
	}
	// And each must equal the plain study at that seed.
	for i, seed := range []uint64{1, 2} {
		want := RunStudy(DefaultConfig(seed, 0.01)).Report.Format()
		if res.Sweep.Outcomes[i].ReportText != want {
			t.Fatalf("seed %d: scenario study differs from plain RunStudy with the calibrated mix", seed)
		}
	}
}

// TestRunScenarioCancelled: a pre-cancelled context surfaces the
// context error and leaves outcomes undone without panicking in the
// cache-experiment stage.
func TestRunScenarioCancelled(t *testing.T) {
	spec := loadCorpusSpec(t, filepath.Join(corpusDir, "fig8.json"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunScenario(ctx, spec)
	if err == nil {
		t.Fatal("cancelled scenario returned no error")
	}
	if res == nil {
		t.Fatal("cancelled scenario returned no partial result")
	}
	for i := range res.Sweep.Outcomes {
		if res.Sweep.Outcomes[i].Done {
			t.Fatalf("outcome %d ran under a cancelled context", i)
		}
		if res.Sweep.Outcomes[i].CacheText != "" {
			t.Fatalf("outcome %d has cache text without running", i)
		}
	}
}

// TestScenarioMinScaleMirrorsCore pins the duplicated constant: the
// scenario package rejects scales core would silently clamp, so the
// two bounds must stay equal.
func TestScenarioMinScaleMirrorsCore(t *testing.T) {
	if scenario.MinScale != MinScale {
		t.Fatalf("scenario.MinScale %v != core.MinScale %v", scenario.MinScale, MinScale)
	}
	if _, err := scenario.Parse([]byte(`{"version":1,"name":"t","scales":[0.001]}`)); err == nil {
		t.Fatal("sub-MinScale scale accepted (core would clamp it into a duplicate study)")
	}
}

// TestRunScenarioNilAndInvalid covers the error paths.
func TestRunScenarioNilAndInvalid(t *testing.T) {
	if _, err := RunScenario(context.Background(), nil); err == nil {
		t.Fatal("nil spec accepted")
	}
	bad := &scenario.Spec{Version: 99, Name: "bad"}
	if _, err := RunScenario(context.Background(), bad); err == nil {
		t.Fatal("invalid spec accepted")
	}
}
