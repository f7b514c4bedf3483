// The sweep worker's arena: the storage one worker's studies reuse
// from one study to the next. It keeps only the pools that pay for
// themselves. Dropping one of them raised machines-sweep's allocation
// per op by the share given (PERFORMANCE.md, "Arenas: only the pools
// that pay"):
//
//   - the trace pipeline's node-buffer chunks and collector block
//     slice (trace.Arena): +52%;
//   - the merge pass's batch buffer (events): one 4096-event batch,
//     224 KiB a study, so about 4 MB of a machines-sweep op's 18
//     studies (by arithmetic; the last ablation, +28%, was measured
//     while cache-plan studies kept their whole stream there);
//   - the analyzer's dense working state (analysis.Scratch): +14.5%;
//   - the CFS file structs, handles and open groups (cfs.Arena,
//     returned by FileSystem.Recycle): +2.6%; its transfer records:
//     +7.7%;
//   - the sim kernel's event-queue bucket arrays (sim.Kernel.Reset):
//     +2.2%.
//
// Reports are not pooled (pooling them saved 0.5%): each study's
// report is allocated fresh, so nothing a study returns aliases the
// arena.
//
// Reuse never changes behavior: pooled storage is emptied and fully
// rewritten, so a study on a warm arena is byte-identical to a cold
// one (TestArenaStudyDeterminism and TestArenaAcrossStudyKinds pin
// this).
package core

import (
	"repro/internal/analysis"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// arena is one worker's reusable simulation state. It is not safe for
// concurrent use: each worker goroutine has its own (workerArenas).
type arena struct {
	kernel  *sim.Kernel
	mach    machine.Arena
	scratch analysis.Scratch
	// events is the merge pass's batch buffer: at most analyzeBatch
	// events, since no worker's study keeps its stream.
	events []trace.Event
}

// newArena returns an empty arena; its pools fill as studies run.
func newArena() *arena {
	return &arena{kernel: sim.New()}
}

// workerArenas returns the arena lookup of an executor that runs n
// studies on workerCount(workers, n) goroutines: arena(w) is worker
// w's, made at its first study. Each goroutine passes only its own w,
// so the slots need no lock.
func workerArenas(workers, n int) func(w int) *arena {
	arenas := make([]*arena, workerCount(workers, n))
	return func(w int) *arena {
		if arenas[w] == nil {
			arenas[w] = newArena()
		}
		return arenas[w]
	}
}
