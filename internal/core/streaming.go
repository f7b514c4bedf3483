// The streaming study pipeline. RunStudy materializes the whole trace
// -- every collected block and the merged event stream -- before
// analysis starts, which caps study scale at available RAM.
// RunStudyStreaming reproduces the CHARISMA instrumentation's actual
// shape instead: the collector spills each block to a file-backed sink
// the moment it arrives (recycling the block's buffer), and analysis
// then streams the spilled trace back through the same per-node k-way
// merge, reading the .trc block index, into the incremental analyzer.
// Both are the one study pipeline (simulate, then analyze) with the
// sink set and no stream kept. Peak memory is O(per-node trace
// buffers + analyzer state) plus the ~40 B/block spill index (~1% of
// the encoded trace) -- event storage no longer grows with trace
// length -- and the resulting Report is byte-identical to the batch
// path's (TestStreamingReportByteIdentical pins this).
package core

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/trace"
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
	m, horizon, _, rd, err := simulate(cfg, nil, sink)
	if err != nil {
		return nil, err
	}
	report, err := analyze(rd, horizon, nil, nil, false)
	if err != nil {
		return nil, fmt.Errorf("core: replaying spilled trace: %w", err)
	}
	report.Degradation = m.FaultReport()
	return &StreamResult{
		Header:        rd.Header(),
		Report:        report,
		Horizon:       horizon,
		EventCount:    rd.EventCount(),
		TraceBlocks:   int64(rd.NumBlocks()),
		TraceBytes:    rd.Size(),
		TraceRecords:  m.TraceRecords(),
		TraceMessages: m.TraceMessages(),
		DiskOps:       m.FS().TotalDiskOps(),
	}, nil
}
