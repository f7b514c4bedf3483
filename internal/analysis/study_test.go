package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/scenario"
)

// TestStudySharingMatchesReference runs whole studies of three corpus
// mixes -- the calibrated NAS mix, read-mostly and checkpoint-heavy --
// and checks Figure 7's sharing of every concurrently opened file
// against the per-block reference.
func TestStudySharingMatchesReference(t *testing.T) {
	mixes := map[string]*core.Config{"nas": {}}
	for _, name := range []string{"read-mostly", "checkpoint-heavy"} {
		spec, err := scenario.Load("../../testdata/scenarios/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.ScenarioSpecs(spec)[0].Config
		mixes[name] = &cfg
	}
	scales := []float64{0.01, 0.03, 0.05}
	for name, mix := range mixes {
		checked := 0
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := *mix
			cfg.Seed, cfg.Scale = seed, scales[seed-1]
			res := core.RunStudy(cfg)
			n, err := analysis.CheckSharing(res.Header, res.Events)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			checked += n
		}
		if checked == 0 {
			t.Fatalf("%s: no concurrently opened file to check", name)
		}
		t.Logf("%s: %d concurrently opened files", name, checked)
	}
}
