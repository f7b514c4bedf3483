// Package twin is the analytical twin of the simulated machine: an
// instant what-if layer that answers "what would this configuration's
// I/O queues look like?" without running the full traced study.
//
// The twin has two halves. The walking half runs the exact workload on
// the simulated machine with tracing off (machine.NewUntraced): the
// same generator, archetype bodies, scheduler, allocator, CFS clients,
// I/O nodes, buffer caches, disks, fault windows, and network
// latencies, minus the trace buffers, drift clocks, and collector. The
// walk accumulates each I/O node's arrival and service moments, which
// equal the traced study's exactly unless the network draws
// per-message jitter. The analytical half treats each I/O node as an
// M/G/1 queue and cross-checks the walk with the Pollaczek–Khinchine
// formula:
//
//	Wq = λ·E[S²] / 2(1−ρ)
//
// with the service second moment derived from the drive model's
// closed-form random-access distribution (disk.Disk.ServiceMoments).
// Where the two halves disagree, the gap itself is informative: the
// paper's workload arrives in synchronized per-job waves, not as a
// Poisson stream, so the realization-aware walk is the prediction and
// the closed form is the independence baseline it is compared against.
//
// Predictions carry no Inf or NaN anywhere: a node at or past
// saturation (ρ ≥ 1) is flagged Saturated instead of reporting an
// infinite wait, and zero-traffic nodes report zeros.
package twin

import (
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// NodePrediction is the M/G/1 view of one I/O node over the study
// horizon. Times are in seconds.
type NodePrediction struct {
	Batches     int64   // request messages served
	Rho         float64 // utilization: total service time / horizon
	MeanService float64 // mean service time per batch (walked)
	MeanWait    float64 // mean queue wait per batch (walked)
	PKWait      float64 // Pollaczek–Khinchine open-arrival wait; 0 when saturated
	QueueLen    float64 // Little's-law mean queue length λ·Wq; 0 when saturated
	Saturated   bool    // ρ >= 1: the closed form diverges
}

// Prediction is the twin's answer for one configuration.
type Prediction struct {
	Horizon sim.Time
	Jobs    int // jobs the schedule ran
	Nodes   []NodePrediction
	// SaturationScale estimates how much more I/O load the
	// configuration absorbs before its busiest I/O node saturates
	// (1/max ρ). Zero when the walk observed no I/O load at all.
	SaturationScale float64
}

// Predict walks the workload on the untraced machine and returns the
// per-I/O-node M/G/1 prediction. The same (Params, Config) pair that
// core.RunStudy would simulate yields the matching prediction; callers
// normally reach it through core.Predict.
func Predict(wp workload.Params, mc machine.Config) *Prediction {
	k := sim.New()
	m := machine.NewUntraced(k, mc)
	horizon := workload.NewGenerator(wp).Install(m)
	k.Run()
	m.FinishTracing() // panics if a job is still running or queued
	return prediction(m, horizon)
}

// prediction assembles the walked moments into the M/G/1 closed forms.
func prediction(m *machine.Machine, horizon sim.Time) *Prediction {
	fs := m.FS()
	nio := fs.Config().IONodes
	// Service second moment: the drive model's closed-form service
	// distribution shifted by the per-request software overhead. Only
	// the squared coefficient of variation survives into P-K (the mean
	// comes from the walk), so cache hits shrinking E[S] are absorbed.
	var dm1, dm2 float64
	if nio > 0 {
		dm1, dm2 = fs.IONode(0).Disk().ServiceMoments()
	}
	oh := fs.Config().IONode.Overhead.ToSeconds()
	sm1 := dm1 + oh
	sm2 := dm2 + 2*oh*dm1 + oh*oh
	cs2 := 0.0
	if sm1 > 0 {
		cs2 = (sm2 - sm1*sm1) / (sm1 * sm1)
		if cs2 < 0 {
			cs2 = 0
		}
	}
	h := horizon.ToSeconds()
	p := &Prediction{Horizon: horizon, Jobs: len(m.JobRecords()), Nodes: make([]NodePrediction, nio)}
	maxRho := 0.0
	for i := 0; i < nio; i++ {
		batches, wait, service := fs.IONode(i).QueueStats()
		np := NodePrediction{Batches: batches}
		if batches > 0 && h > 0 {
			lambda := float64(batches) / h
			np.Rho = service.ToSeconds() / h
			np.MeanService = service.ToSeconds() / float64(batches)
			np.MeanWait = wait.ToSeconds() / float64(batches)
			if np.Rho < 1 {
				es2 := np.MeanService * np.MeanService * (1 + cs2)
				np.PKWait = lambda * es2 / (2 * (1 - np.Rho))
				np.QueueLen = lambda * np.PKWait
			} else {
				np.Saturated = true
			}
		}
		if np.Rho > maxRho {
			maxRho = np.Rho
		}
		p.Nodes[i] = np
	}
	if maxRho > 0 {
		p.SaturationScale = 1 / maxRho
	}
	return p
}

// TotalBatches sums the served request messages over all I/O nodes.
func (p *Prediction) TotalBatches() int64 {
	var n int64
	for _, np := range p.Nodes {
		n += np.Batches
	}
	return n
}

// MeanWait returns the machine-wide batch-weighted mean queue wait in
// seconds (0 when no batches were served).
func (p *Prediction) MeanWait() float64 {
	var batches int64
	var wait float64
	for _, np := range p.Nodes {
		batches += np.Batches
		wait += np.MeanWait * float64(np.Batches)
	}
	if batches == 0 {
		return 0
	}
	return wait / float64(batches)
}

// Saturated reports whether any I/O node is at or past saturation.
func (p *Prediction) Saturated() bool {
	for _, np := range p.Nodes {
		if np.Saturated {
			return true
		}
	}
	return false
}

// Format renders the prediction as the compact table `charisma
// -predict` prints. The output is fully defined for every input:
// saturated nodes render "sat" in the closed-form columns, idle nodes
// render zeros, and no cell is ever Inf or NaN.
func (p *Prediction) Format() string {
	var b strings.Builder
	b.WriteString("Analytical twin: per-I/O-node M/G/1 prediction\n")
	fmt.Fprintf(&b, "horizon %.1fh, %d jobs, %d I/O batches\n",
		p.Horizon.ToSeconds()/3600, p.Jobs, p.TotalBatches())
	fmt.Fprintf(&b, "%4s  %9s  %8s  %9s  %10s  %12s  %8s\n",
		"node", "batches", "util", "svc(ms)", "wait(ms)", "P-K wait(ms)", "queue")
	for i, np := range p.Nodes {
		pk, ql := fmt.Sprintf("%12.3f", 1e3*np.PKWait), fmt.Sprintf("%8.3f", np.QueueLen)
		if np.Saturated {
			pk, ql = fmt.Sprintf("%12s", "sat"), fmt.Sprintf("%8s", "sat")
		}
		fmt.Fprintf(&b, "%4d  %9d  %8.4f  %9.3f  %10.3f  %s  %s\n",
			i, np.Batches, np.Rho, 1e3*np.MeanService, 1e3*np.MeanWait, pk, ql)
	}
	switch {
	case p.Saturated():
		b.WriteString("busiest I/O node is saturated (util >= 1): queueing grows without bound at this load\n")
	case p.SaturationScale > 0:
		fmt.Fprintf(&b, "headroom: ~%.0fx this I/O load saturates the busiest node\n", p.SaturationScale)
	default:
		b.WriteString("no I/O load observed\n")
	}
	return b.String()
}
