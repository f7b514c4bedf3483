package core

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/twin"
)

// observedQueue derives the twin's walked per-node quantities from a
// study's queue counter the way twin.Predict does: utilization over
// the horizon and mean wait per batch, zero for an idle node.
func observedQueue(q machine.IONodeQueueStat, horizon float64) (rho, meanWait float64) {
	if q.Batches == 0 || horizon <= 0 {
		return 0, 0
	}
	return q.Service.ToSeconds() / horizon, q.Wait.ToSeconds() / float64(q.Batches)
}

// TestTwinConformance runs every non-replay corpus scenario study
// twice — once through the full traced simulation, once through the
// analytical twin — and holds the twin's walk equal to the study: the
// same horizon and, per I/O node, the same batches, utilization, and
// mean wait. The walk is the same machine with tracing off, and trace
// messages only add traffic to the service node, so nothing the I/O
// nodes see may differ. No corpus study draws network jitter, the one
// case where that fails (see TestTwinConformanceUnderJitter).
func TestTwinConformance(t *testing.T) {
	ran := 0
	for _, path := range corpusPaths(t) {
		path := path
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		spec := loadCorpusSpec(t, path)
		if spec.IsReplay() {
			// A replay scenario has no workload to walk: its timing is
			// already recorded.
			continue
		}
		for _, ss := range ScenarioSpecs(spec) {
			ss := ss
			ran++
			t.Run(name+"/"+ss.Label, func(t *testing.T) {
				t.Parallel()
				res := RunStudy(ss.Config)
				pred := Predict(ss.Config)
				checkTwinShape(t, res, pred)
				h := res.Horizon.ToSeconds()
				for i, q := range res.IOQueue {
					np := pred.Nodes[i]
					rho, wait := observedQueue(q, h)
					if np.Batches != q.Batches || np.Rho != rho || np.MeanWait != wait {
						t.Errorf("node %d: twin walked batches=%d util=%v wait=%vs, study observed batches=%d util=%v wait=%vs",
							i, np.Batches, np.Rho, np.MeanWait, q.Batches, rho, wait)
					}
				}
			})
		}
	}
	if ran < 8 {
		t.Fatalf("conformance covered only %d studies", ran)
	}
}

// checkTwinShape checks what the twin and the study must share under
// any configuration: the horizon and the I/O-node count.
func checkTwinShape(t *testing.T, res *Result, pred *twin.Prediction) {
	t.Helper()
	if pred.Horizon != res.Horizon {
		t.Fatalf("twin horizon %v != study horizon %v", pred.Horizon, res.Horizon)
	}
	if len(pred.Nodes) != len(res.IOQueue) {
		t.Fatalf("twin models %d I/O nodes, study ran %d", len(pred.Nodes), len(res.IOQueue))
	}
}

// Tolerance bands for a network with per-message jitter: utilization
// within 5% relative (or a small absolute epsilon for near-idle nodes),
// machine-wide mean queue wait within 25%.
const (
	rhoRelBand  = 0.05
	rhoAbsEps   = 1e-4 // utilization points; absorbs near-zero nodes
	waitRelBand = 0.25
	waitAbsEps  = 100e-6 // seconds; absorbs near-zero waits
)

// within reports |got-want| <= rel*|want| + abs.
func within(got, want, rel, abs float64) bool {
	return math.Abs(got-want) <= rel*math.Abs(want)+abs
}

// TestTwinConformanceUnderJitter is the one configuration where the
// walk is not exact: the slow-net preset's per-message network jitter.
// Trace-block messages draw from the same jitter stream as CFS
// messages, so the untraced walk hands every later CFS message a
// different delay. The twin is held inside tolerance bands instead.
func TestTwinConformanceUnderJitter(t *testing.T) {
	slowNet, err := faults.Preset("slow-net")
	if err != nil {
		t.Fatal(err)
	}
	if slowNet.Net.JitterMicros == 0 {
		t.Fatal("slow-net preset no longer draws jitter; pick a preset that does")
	}
	cfg := DefaultConfig(42, MinScale)
	cfg.Faults = &slowNet
	res := RunStudy(cfg)
	pred := Predict(cfg)
	checkTwinShape(t, res, pred)
	h := res.Horizon.ToSeconds()
	var simBatches int64
	var simWaitSum float64
	for i, q := range res.IOQueue {
		simRho, _ := observedQueue(q, h)
		if !within(pred.Nodes[i].Rho, simRho, rhoRelBand, rhoAbsEps) {
			t.Errorf("node %d: twin utilization %.6f vs simulated %.6f (band %.0f%% + %g)",
				i, pred.Nodes[i].Rho, simRho, 100*rhoRelBand, rhoAbsEps)
		}
		simBatches += q.Batches
		simWaitSum += q.Wait.ToSeconds()
	}
	if simBatches == 0 {
		t.Fatal("slow-net study served no batches")
	}
	simMeanWait := simWaitSum / float64(simBatches)
	if !pred.Saturated() && !within(pred.MeanWait(), simMeanWait, waitRelBand, waitAbsEps) {
		t.Errorf("machine-wide mean wait: twin %.6fs vs simulated %.6fs (band %.0f%% + %gs)",
			pred.MeanWait(), simMeanWait, 100*waitRelBand, waitAbsEps)
	}
}
