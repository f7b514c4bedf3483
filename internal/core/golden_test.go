package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
)

// checkGolden compares got against testdata/name, or rewrites the file
// when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output diverged from %s (first diff near byte %d); if the change is intentional, regenerate with UPDATE_GOLDEN=1.\ngot %d bytes, want %d bytes",
			path, firstDiff(got, string(want)), len(got), len(want))
	}
}

// TestStudyGoldenReport pins the seed-42 report against a committed
// golden file, so a deterministic-but-wrong change to event ordering,
// block allocation, or a statistic cannot slip past TestStudyDeterminism
// (which only compares a run against itself). Regenerate after an
// intentional behavior or format change with:
//
//	UPDATE_GOLDEN=1 go test -run TestStudyGoldenReport ./internal/core/
func TestStudyGoldenReport(t *testing.T) {
	checkGolden(t, "report_seed42_scale002.golden", RunStudy(DefaultConfig(42, 0.02)).Report.Format())
}

// TestTopologyTimingGolden pins the simulated timing of every topology,
// healthy and under a degraded network, in exact integer ticks: the
// horizon, the trace and disk counters, each I/O node's queueing
// counters, and the degraded network's message and jitter statistics.
// The report golden runs only the healthy hypercube, and no other exact
// test covers a degraded mesh or fat tree. The fat-tree machine's spine
// runs at half its edge rate, so a cross-pod transfer priced at the
// wrong tier moves the golden. Regenerate with:
//
//	UPDATE_GOLDEN=1 go test -run TestTopologyTimingGolden ./internal/core/
func TestTopologyTimingGolden(t *testing.T) {
	preset := func(name string) machine.Config {
		mc, err := machine.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		return mc
	}
	mesh := machine.NASConfig(0)
	mesh.Net.Kind = "mesh"
	fattree := machine.NASConfig(0)
	fattree.Net.Kind = "fattree"
	fattree.Net.SpineBytesPerSecond = fattree.Net.BytesPerSecond / 2
	machines := []struct {
		name string
		mc   machine.Config
	}{
		{"nas", machine.NASConfig(0)},
		{"nas-mesh", mesh},
		{"nas-fattree-slow-spine", fattree},
		{"cluster2026", preset("cluster2026")},
		{"mini", preset("mini")},
	}
	// Classes 0 and 1 exist on every shape: cube dimensions 0 and 1,
	// the mesh's x and y axes, the fat tree's edge and spine levels.
	degraded := &faults.Config{Net: faults.Net{
		LatencyMultiplier: 1.5,
		BandwidthDivisor:  2,
		JitterMicros:      50,
		Links:             []faults.Link{{Dim: 0, LatencyMultiplier: 2}, {Dim: 1, LatencyMultiplier: 3}},
	}}

	var b strings.Builder
	for _, m := range machines {
		for _, fc := range []*faults.Config{nil, degraded} {
			cfg := DefaultConfig(42, 0.01)
			mc := m.mc
			cfg.Machine, cfg.Faults = &mc, fc
			res := RunStudy(cfg)
			state := "healthy"
			if fc != nil {
				state = "degraded"
			}
			fmt.Fprintf(&b, "%s %s: horizon %d, %d trace records in %d messages, %d disk ops\n",
				m.name, state, int64(res.Horizon), res.TraceRecords, res.TraceMessages, res.DiskOps)
			for i, q := range res.IOQueue {
				fmt.Fprintf(&b, "  ionode %d: %d batches, wait %d, service %d\n",
					i, q.Batches, int64(q.Wait), int64(q.Service))
			}
			if d := res.Report.Degradation; d != nil && d.Net != nil {
				fmt.Fprintf(&b, "  network: %d messages, %d jittered (+%v s)\n",
					d.Net.Messages, d.Net.Jittered, d.Net.JitterSeconds)
			}
		}
	}
	checkGolden(t, "topology_timing.golden", b.String())
}
