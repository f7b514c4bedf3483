package core

import (
	"context"
	"runtime"
	"testing"
)

// sweepSpecs returns n quick specs with distinct seeds.
func sweepSpecs(n int) []StudySpec {
	var seeds []uint64
	for i := 1; i <= n; i++ {
		seeds = append(seeds, uint64(i))
	}
	return CrossSpecs(seeds, []float64{MinScale})
}

// TestRunSweepWorkerCountInvariance is the sweep engine's core
// contract: the merged output is byte-identical no matter how many
// workers ran it (and therefore no matter how specs were interleaved
// across arenas). Run with -race to also exercise the worker pool's
// synchronization.
func TestRunSweepWorkerCountInvariance(t *testing.T) {
	specs := sweepSpecs(8)
	serial := RunSweep(context.Background(), SweepConfig{Specs: specs, Workers: 1})
	parallel := RunSweep(context.Background(), SweepConfig{Specs: specs, Workers: 8})

	if got, want := parallel.Format(), serial.Format(); got != want {
		t.Fatalf("sweep output differs between 1 and 8 workers:\n1 worker:\n%s\n8 workers:\n%s", want, got)
	}
	for i := range specs {
		a, b := &serial.Outcomes[i], &parallel.Outcomes[i]
		if !a.Done || !b.Done {
			t.Fatalf("spec %d not run: serial=%v parallel=%v", i, a.Done, b.Done)
		}
		if a.ReportText != b.ReportText {
			t.Fatalf("spec %d (%s): report differs between worker counts", i, specs[i].Label)
		}
		if a.TraceRecords != b.TraceRecords || a.TraceMessages != b.TraceMessages ||
			a.DiskOps != b.DiskOps || a.EventCount != b.EventCount || a.Horizon != b.Horizon {
			t.Fatalf("spec %d (%s): metrics differ: %+v vs %+v", i, specs[i].Label, a, b)
		}
	}
}

// TestSweepMatchesStandaloneStudy checks that a study run on a warm,
// shared worker arena inside a sweep produces exactly the report and
// counters a standalone cold RunStudy produces.
// (TestArenaStudyDeterminism compares the event streams.)
func TestSweepMatchesStandaloneStudy(t *testing.T) {
	specs := sweepSpecs(3)
	res := RunSweep(context.Background(), SweepConfig{Specs: specs, Workers: 1})
	for i, spec := range specs {
		standalone := RunStudy(spec.Config)
		o := &res.Outcomes[i]
		if o.ReportText != standalone.Report.Format() {
			t.Fatalf("spec %d (%s): sweep report differs from standalone RunStudy", i, spec.Label)
		}
		if o.EventCount != len(standalone.Events) {
			t.Fatalf("spec %d: event count %d vs standalone %d", i, o.EventCount, len(standalone.Events))
		}
		if o.DiskOps != standalone.DiskOps || o.TraceRecords != standalone.TraceRecords ||
			o.TraceMessages != standalone.TraceMessages {
			t.Fatalf("spec %d: instrumentation counters differ from standalone", i)
		}
	}
}

// TestWorkerCount pins the one worker-count rule every executor uses.
func TestWorkerCount(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ workers, n, want int }{
		{0, 1000, min(procs, 1000)},
		{-2, 1000, min(procs, 1000)},
		{1, 5, 1},
		{3, 5, 3},
		{8, 3, 3},
		{4, 0, 1},
		{0, 0, 1},
	} {
		if got := workerCount(c.workers, c.n); got != c.want {
			t.Errorf("workerCount(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
	if res := RunSweep(context.Background(), SweepConfig{Workers: 4}); res.Workers != 0 || len(res.Outcomes) != 0 {
		t.Fatalf("empty sweep: %d workers, %d outcomes; want 0 and 0", res.Workers, len(res.Outcomes))
	}
}

// TestRunSweepCancelled checks that a pre-cancelled context runs
// nothing and marks every outcome undone.
func TestRunSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunSweep(ctx, SweepConfig{Specs: sweepSpecs(4), Workers: 2})
	if res.Err == nil {
		t.Fatal("cancelled sweep reported no error")
	}
	for i := range res.Outcomes {
		if res.Outcomes[i].Done {
			t.Fatalf("outcome %d ran despite cancelled context", i)
		}
	}
}

// TestScaleClampUnified pins the satellite fix: a zero-value scale is
// clamped to MinScale everywhere, so Config{} can no longer silently
// run a full 156-hour study.
func TestScaleClampUnified(t *testing.T) {
	zero := RunStudy(Config{Seed: 7})
	min := RunStudy(DefaultConfig(7, MinScale))
	if zero.Report.Format() != min.Report.Format() {
		t.Fatal("zero-scale Config did not clamp to MinScale")
	}
	if got := DefaultConfig(7, -1).Scale; got != MinScale {
		t.Fatalf("DefaultConfig(-1) scale = %v, want %v", got, MinScale)
	}
	if got := (Config{Scale: 0.5}).normalized().Scale; got != 0.5 {
		t.Fatalf("normalized clobbered a valid scale: %v", got)
	}
}

// TestCrossSpecs checks the deterministic ordering and labeling of
// the sweep spec generator.
func TestCrossSpecs(t *testing.T) {
	specs := CrossSpecs([]uint64{1, 2}, []float64{0.01, 0.05})
	if len(specs) != 4 {
		t.Fatalf("expected 4 specs, got %d", len(specs))
	}
	want := []string{
		"seed=1 scale=0.01", "seed=1 scale=0.05",
		"seed=2 scale=0.01", "seed=2 scale=0.05",
	}
	for i, spec := range specs {
		if spec.Label != want[i] {
			t.Fatalf("spec %d label %q, want %q", i, spec.Label, want[i])
		}
	}
	if defaults := CrossSpecs(nil, nil); len(defaults) != 1 ||
		defaults[0].Config.Seed != 42 || defaults[0].Config.Scale != 0.1 {
		t.Fatalf("default CrossSpecs wrong: %+v", defaults)
	}
}
