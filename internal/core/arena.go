// Arena: one worker's reusable simulation state. PR 1 made a single
// study allocation-light; the arena makes the *second* study on the
// same worker nearly allocation-free by keeping every layer's backing
// storage alive between studies:
//
//   - the sim kernel's event-queue bucket arrays (sim.Kernel.Reset),
//   - the trace pipeline's node-buffer chunks and collector block
//     slice (trace.Arena), and the merged event stream a study keeps,
//   - the CFS file structs, handles and open groups (cfs.Arena; block
//     tables are not pooled, since their pages never copy as a file
//     grows),
//   - the analyzer's dense working state and -- once a report is
//     recycled -- its CDFs and histograms (analysis.Scratch).
//
// Reuse never changes behavior: pooled storage is length-zeroed and
// fully rewritten, so a study run on a warm arena is byte-identical
// to a cold RunStudy (TestArenaStudyDeterminism pins this).
package core

import (
	"repro/internal/analysis"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Arena is one worker's reusable simulation state. It is not safe for
// concurrent use: a sweep gives each worker goroutine its own.
type Arena struct {
	kernel  *sim.Kernel
	mach    machine.Arena
	scratch analysis.Scratch
	// events is the last kept merged stream, reused: Result.Events, or
	// a sweep study's stream for its cache plan.
	events []trace.Event
}

// NewArena returns an empty arena; its pools fill as studies run.
func NewArena() *Arena {
	return &Arena{kernel: sim.New()}
}

// RunStudy runs one study, drawing storage from the arena's pools.
// The result is identical to core.RunStudy's, with one ownership
// caveat: the Result borrows arena storage, so it (and its Trace,
// Events, and Report) is valid only until the arena's next RunStudy
// call. Copy out anything that must outlive it, then return the
// storage with Recycle.
func (a *Arena) RunStudy(cfg Config) *Result {
	return runStudy(cfg, a)
}

// Recycle returns a finished study's storage -- the trace blocks and
// the report's statistics -- to the arena pools and poisons res. The
// event stream needs no handing back: the arena owns it throughout
// and overwrites it on the next RunStudy.
// Call it once the result has been read; skipping it is safe but
// forfeits the reuse (the next study allocates afresh).
func (a *Arena) Recycle(res *Result) {
	if res == nil {
		return
	}
	if res.Trace != nil {
		a.mach.Trace.ReclaimTrace(res.Trace)
		res.Trace = nil
	}
	if res.Report != nil {
		analysis.ReclaimReport(&a.scratch, res.Report)
		res.Report = nil
	}
	res.Events = nil
}
