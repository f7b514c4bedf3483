// The streaming study pipeline. RunStudy materializes the whole trace
// -- every collected block and the merged event stream -- before
// analysis starts, which caps study scale at available RAM.
// RunStudyStreaming reproduces the CHARISMA instrumentation's actual
// shape instead: the collector spills each block to a file-backed sink
// the moment it arrives (recycling the block's buffer), and analysis
// then streams the spilled trace back through the same per-node k-way
// merge, reading the .trc block index, into the incremental analyzer. Peak
// memory is O(per-node trace buffers + analyzer state) plus the
// ~40 B/block spill index (~1% of the encoded trace) -- event storage
// no longer grows with trace length -- and the resulting Report is
// byte-identical to the batch path's
// (TestStreamingReportByteIdentical pins this).
package core

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// StreamSink is the spill storage a streaming study writes its trace
// through: sequential writes while the simulation runs, random-access
// reads for the post-run merge. *os.File implements it; tests use a
// small in-memory buffer.
type StreamSink interface {
	io.Writer
	io.ReaderAt
}

// StreamResult is everything a streaming study produces. Unlike
// Result it holds no trace and no event stream -- the trace lives in
// the sink, re-readable with trace.NewReader/OpenReader.
type StreamResult struct {
	Header  trace.Header
	Report  *analysis.Report
	Horizon sim.Time

	EventCount  int64 // records in the spilled trace
	TraceBlocks int64 // blocks spilled through the sink
	TraceBytes  int64 // encoded trace size in the sink

	// Instrumentation-side statistics (Section 3), as in Result.
	TraceRecords  int64
	TraceMessages int64
	DiskOps       int64
}

// RunStudyStreaming runs one study end to end with the trace spilled
// through sink instead of held in memory: generate the workload,
// simulate the machine while streaming every collected block into
// sink, then stream the spilled trace back through drift correction
// and the incremental analyzer. The report is byte-identical to
// RunStudy's at the same config; peak event-storage memory is bounded
// by the per-node trace buffers rather than the trace length.
func RunStudyStreaming(cfg Config, sink StreamSink) (*StreamResult, error) {
	cfg = cfg.normalized()
	wp, mc := studyParams(cfg)

	// A private arena threads the trace-chunk pool through the node
	// buffers and the collector: every spilled block's storage is
	// immediately reused for the next, so the whole tracing layer
	// cycles through a handful of block-sized chunks.
	var arena machine.Arena
	k := sim.New()
	m := machine.NewWith(k, mc, &arena)

	w, err := trace.NewWriter(sink, m.TraceHeader())
	if err != nil {
		return nil, fmt.Errorf("core: starting trace spill: %w", err)
	}
	m.SetTraceSink(w)

	gen := workload.NewGenerator(wp)
	horizon := gen.Install(m)
	k.Run()
	m.FinishTracing()
	if err := m.TraceSinkErr(); err != nil {
		return nil, fmt.Errorf("core: spilling trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("core: spilling trace: %w", err)
	}

	// The simulation is over and the trace is on the sink; stream it
	// back. The writer's block index carries the byte offsets and the
	// double timestamps, so no scan pass is needed.
	rd, err := w.Reader(sink)
	if err != nil {
		return nil, fmt.Errorf("core: reopening spilled trace: %w", err)
	}
	o := analysis.NewOnline(m.TraceHeader())
	err = rd.Events(func(ev *trace.Event) error {
		o.Observe(ev)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: replaying spilled trace: %w", err)
	}
	report := o.Finish(horizon)
	report.Degradation = m.FaultReport()
	return &StreamResult{
		Header:        m.TraceHeader(),
		Report:        report,
		Horizon:       horizon,
		EventCount:    rd.EventCount(),
		TraceBlocks:   int64(rd.NumBlocks()),
		TraceBytes:    w.BytesWritten(),
		TraceRecords:  m.TraceRecords(),
		TraceMessages: m.TraceMessages(),
		DiskOps:       m.FS().TotalDiskOps(),
	}, nil
}
