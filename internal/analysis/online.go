package analysis

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Online is the incremental analyzer: it consumes a postprocessed
// (time-ordered) event stream one record at a time and produces
// exactly the Report the batch Analyze does -- Analyze is a thin loop
// over it, so the two paths cannot drift.
// Its working state is the per-file accumulators and job bookkeeping,
// never the event stream itself, which is what lets core's streaming
// study pipeline analyze traces far larger than memory.
//
// Use: Observe every event in stream order, then Finish exactly once.
type Online struct {
	s          *Scratch
	r          *Report
	blockBytes int64

	files    map[uint64]*fileAcc
	jobStart map[uint32]sim.Time
	jobNodes map[uint32]int
	jobFiles map[uint32]map[uint64]struct{}
	edges    []edge
	lastT    sim.Time
}

// NewOnline returns an incremental analyzer with freshly allocated
// working state.
func NewOnline(header trace.Header) *Online {
	return OnlineInto(nil, header)
}

// OnlineInto is NewOnline drawing its working state -- file
// accumulators, job bookkeeping, statistic objects -- from the given
// scratch pool, which a worker reuses across studies (see core.Arena).
// The Report that Finish returns borrows pooled CDFs and histograms:
// once it is discarded, return them with ReclaimReport. A nil scratch
// allocates everything fresh (identical to NewOnline).
func OnlineInto(s *Scratch, header trace.Header) *Online {
	o := &Online{
		s: s,
		r: &Report{
			Header:         header,
			JobConcurrency: make(map[int]sim.Time),
			NodesPerJob:    s.hist(),
			NodeTime:       make(map[int]float64),
			FilesPerJob:    s.hist(),
			FilesByClass:   make(map[FileClass]int),
			FileSizeCDF:    s.cdf(),

			ReadCountBySize:  s.cdf(),
			ReadBytesBySize:  s.cdf(),
			WriteCountBySize: s.cdf(),
			WriteBytesBySize: s.cdf(),

			SeqPct:       newClassCDFs(s),
			ConsPct:      newClassCDFs(s),
			IntervalHist: s.hist(),
			ReqSizeHist:  s.hist(),
			ByteSharing:  newClassCDFs(s),
			BlockSharing: newClassCDFs(s),
		},
	}
	o.blockBytes = header.BlockSize()
	o.files = s.fileMap()
	if s != nil {
		if s.jobStart == nil {
			s.jobStart = make(map[uint32]sim.Time)
			s.jobNodes = make(map[uint32]int)
			s.jobFiles = make(map[uint32]map[uint64]struct{})
		}
		o.jobStart, o.jobNodes, o.jobFiles = s.jobStart, s.jobNodes, s.jobFiles
		o.edges = s.edges[:0]
	} else {
		o.jobStart = make(map[uint32]sim.Time)
		o.jobNodes = make(map[uint32]int)
		o.jobFiles = make(map[uint32]map[uint64]struct{})
	}
	return o
}

// Observe feeds the analyzer one event. Events must arrive in
// postprocessed stream order; ev is not retained.
func (o *Online) Observe(ev *trace.Event) {
	r, s := o.r, o.s
	t := sim.Time(ev.Time)
	if t > o.lastT {
		o.lastT = t
	}
	switch ev.Type {
	case trace.EvJobStart:
		r.TotalJobs++
		nodes := int(ev.Size)
		if nodes <= 1 {
			r.SingleNodeJobs++
		} else {
			r.MultiNodeJobs++
		}
		r.NodesPerJob.Add(int64(nodes))
		o.jobStart[ev.Job] = t
		o.jobNodes[ev.Job] = nodes
		o.edges = append(o.edges, edge{t, +1})
	case trace.EvJobEnd:
		if start, ok := o.jobStart[ev.Job]; ok {
			r.NodeTime[o.jobNodes[ev.Job]] +=
				float64(o.jobNodes[ev.Job]) * (t - start).ToSeconds()
		}
		o.edges = append(o.edges, edge{t, -1})
	case trace.EvOpen:
		r.TotalOpens++
		if int(ev.Mode) < len(r.ModeOpens) {
			r.ModeOpens[ev.Mode]++
		}
		if o.jobFiles[ev.Job] == nil {
			o.jobFiles[ev.Job] = s.fileSet()
		}
		o.jobFiles[ev.Job][ev.File] = struct{}{}
		fileFor(s, o.files, ev.File).observe(ev, s)
	case trace.EvClose, trace.EvDelete:
		fileFor(s, o.files, ev.File).observe(ev, s)
	case trace.EvRead:
		r.ReadCountBySize.Add(float64(ev.Size))
		fileFor(s, o.files, ev.File).observe(ev, s)
	case trace.EvWrite:
		r.WriteCountBySize.Add(float64(ev.Size))
		fileFor(s, o.files, ev.File).observe(ev, s)
	case trace.EvReadStrided:
		r.ReadCountBySize.Add(float64(ev.Bytes()))
		fileFor(s, o.files, ev.File).observe(ev, s)
	case trace.EvWriteStrided:
		r.WriteCountBySize.Add(float64(ev.Bytes()))
		fileFor(s, o.files, ev.File).observe(ev, s)
	case trace.EvSeek:
		// Seeks move pointers; the request stream itself is what
		// the paper characterizes.
	}
}

// Finish computes the per-file and aggregate statistics and returns
// the completed Report. The horizon is the duration of the traced
// period; pass the simulation end time, or 0 to use the last event's
// timestamp. Call it exactly once; the analyzer must not be used
// afterwards.
func (o *Online) Finish(horizon sim.Time) *Report {
	r, s := o.r, o.s
	if horizon <= 0 {
		horizon = o.lastT
	}
	r.Horizon = horizon
	r.JobConcurrency = concurrencyFromEdges(o.edges, horizon)

	// Traced jobs: those that opened at least one file.
	r.TracedJobs = len(o.jobFiles)
	for _, fs := range o.jobFiles {
		r.FilesPerJob.Add(int64(len(fs)))
	}

	// Per-file statistics.
	var ids []uint64
	if s != nil {
		ids = s.ids[:0]
	} else {
		ids = make([]uint64, 0, len(o.files))
	}
	for id := range o.files {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var tempOpens int64
	var roFiles, woFiles int
	var roBytes, woBytes float64
	var oneIntervalZero, oneIntervalTotal int64
	for _, id := range ids {
		f := o.files[id]
		r.FilesOpened++
		class := f.class()
		r.FilesByClass[class]++
		if class == ReadWrite {
			r.ReadWriteSameOpen++
		}
		if class == ReadOnly {
			roFiles++
			roBytes += float64(f.bytesRead)
		}
		if class == WriteOnly {
			woFiles++
			woBytes += float64(f.bytesWritten)
		}
		tempOpens += int64(f.tempOpens)
		if f.closed {
			r.FileSizeCDF.Add(float64(f.sizeAtClose))
		}

		// Figures 5-6: files with more than one request, per the paper.
		if f.totalRequests() > 1 {
			if seqPct, consPct, ok := f.seqConsPct(); ok {
				r.SeqPct[class].Add(seqPct)
				r.ConsPct[class].Add(consPct)
			}
		}

		// Table 2.
		nIntervals, allZero := f.distinctIntervals(s)
		r.IntervalHist.Add(int64(nIntervals))
		if nIntervals == 1 {
			oneIntervalTotal++
			if allZero {
				oneIntervalZero++
			}
		}

		// Table 3.
		r.ReqSizeHist.Add(int64(len(f.reqSizes)))

		// Figure 7: concurrently open on >= 2 nodes.
		if f.maxOpenNodes >= 2 {
			if bytePct, blockPct, ok := f.sharing(o.blockBytes, s); ok {
				r.ByteSharing[class].Add(bytePct)
				r.BlockSharing[class].Add(blockPct)
			}
		}
	}
	if r.TotalOpens > 0 {
		r.TempOpenFraction = float64(tempOpens) / float64(r.TotalOpens)
	}
	if roFiles > 0 {
		r.MeanBytesRead = roBytes / float64(roFiles)
	}
	if woFiles > 0 {
		r.MeanBytesWritten = woBytes / float64(woFiles)
	}
	if oneIntervalTotal > 0 {
		r.OneIntervalZeroFrac = float64(oneIntervalZero) / float64(oneIntervalTotal)
	}

	// Figure 4 byte-weighted CDFs and small-request fractions.
	fillBytesBySize(r.ReadCountBySize, r.ReadBytesBySize)
	fillBytesBySize(r.WriteCountBySize, r.WriteBytesBySize)
	r.SmallReadFrac = r.ReadCountBySize.At(SmallRequestBytes - 1)
	r.SmallWriteFrac = r.WriteCountBySize.At(SmallRequestBytes - 1)
	r.SmallReadData = r.ReadBytesBySize.At(SmallRequestBytes - 1)
	r.SmallWriteData = r.WriteBytesBySize.At(SmallRequestBytes - 1)

	// The report is complete: everything it exposes has been copied or
	// summarized out of the working state, so the accumulators, job
	// maps, and edge list can go back to the pool for the next study.
	if s != nil {
		s.edges = o.edges
		s.ids = ids
		s.release()
	}
	o.r = nil // poison: Observe/Finish after Finish is a bug
	return r
}
