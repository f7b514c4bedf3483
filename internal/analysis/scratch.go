package analysis

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Scratch pools the analyzer's working state across studies: the
// per-file accumulators with their maps and request streams, the job
// bookkeeping maps, the concurrency edge list, and -- via
// ReclaimReport -- the CDFs and histograms a discarded Report carried.
// A worker that analyzes many traces back to back (see core.Arena)
// allocates this state once and clears it between studies.
//
// All methods accept a nil receiver and then fall back to fresh
// allocation, so the scratch-threaded code paths serve the one-shot
// Analyze entry point unchanged. A Scratch is not safe for concurrent
// use; give each worker its own. The zero value is ready to use.
type Scratch struct {
	files    map[uint64]*fileAcc
	accFree  []*fileAcc
	strFree  []*nodeStream
	jobStart map[uint32]sim.Time
	jobNodes map[uint32]int
	jobFiles map[uint32]map[uint64]struct{}
	setFree  []map[uint64]struct{}
	edges    []edge
	ids      []uint64

	cdfFree  []*stats.CDF
	histFree []*stats.Hist

	// Per-file statistic temporaries (distinctIntervals, sharing).
	seenIntervals map[int64]struct{}
	shareEdges    []posEdge
	blockEdges    []posEdge
	mergeBuf      []span
}

// cdf returns an empty CDF, pooled when possible.
func (s *Scratch) cdf() *stats.CDF {
	if s != nil {
		if n := len(s.cdfFree); n > 0 {
			c := s.cdfFree[n-1]
			s.cdfFree[n-1] = nil
			s.cdfFree = s.cdfFree[:n-1]
			return c
		}
	}
	return &stats.CDF{}
}

// hist returns an empty histogram, pooled when possible.
func (s *Scratch) hist() *stats.Hist {
	if s != nil {
		if n := len(s.histFree); n > 0 {
			h := s.histFree[n-1]
			s.histFree[n-1] = nil
			s.histFree = s.histFree[:n-1]
			return h
		}
	}
	return &stats.Hist{}
}

// fileMap returns the (cleared) file-accumulator map.
func (s *Scratch) fileMap() map[uint64]*fileAcc {
	if s == nil {
		return make(map[uint64]*fileAcc)
	}
	if s.files == nil {
		s.files = make(map[uint64]*fileAcc)
	}
	return s.files
}

// getAcc returns a zeroed accumulator for file id.
func (s *Scratch) getAcc(id uint64) *fileAcc {
	if s != nil {
		if n := len(s.accFree); n > 0 {
			f := s.accFree[n-1]
			s.accFree[n-1] = nil
			s.accFree = s.accFree[:n-1]
			f.id = id
			return f
		}
	}
	return newFileAcc(id)
}

// putAcc clears an accumulator (returning its streams too) and pools it.
func (s *Scratch) putAcc(f *fileAcc) {
	for node, st := range f.streams {
		s.putStream(st)
		delete(f.streams, node)
	}
	clear(f.reqSizes)
	clear(f.openHandles)
	clear(f.createdByJobs)
	*f = fileAcc{
		streams:       f.streams,
		reqSizes:      f.reqSizes,
		openHandles:   f.openHandles,
		createdByJobs: f.createdByJobs,
	}
	s.accFree = append(s.accFree, f)
}

// getStream returns a zeroed per-node request stream.
func (s *Scratch) getStream() *nodeStream {
	if s != nil {
		if n := len(s.strFree); n > 0 {
			st := s.strFree[n-1]
			s.strFree[n-1] = nil
			s.strFree = s.strFree[:n-1]
			return st
		}
	}
	return &nodeStream{}
}

// putStream clears a stream and pools it.
func (s *Scratch) putStream(st *nodeStream) {
	clear(st.intervals)
	*st = nodeStream{intervals: st.intervals, ranges: st.ranges[:0]}
	s.strFree = append(s.strFree, st)
}

// fileSet returns an empty file-ID set for per-job tracking.
func (s *Scratch) fileSet() map[uint64]struct{} {
	if s != nil {
		if n := len(s.setFree); n > 0 {
			m := s.setFree[n-1]
			s.setFree[n-1] = nil
			s.setFree = s.setFree[:n-1]
			return m
		}
	}
	return make(map[uint64]struct{})
}

// seenMap returns the cleared interval-dedup map.
func (s *Scratch) seenMap() map[int64]struct{} {
	if s == nil {
		return make(map[int64]struct{})
	}
	if s.seenIntervals == nil {
		s.seenIntervals = make(map[int64]struct{})
	}
	clear(s.seenIntervals)
	return s.seenIntervals
}

// release returns the analyzer's per-study working state to the pools
// once a Report has been fully computed. Safe on nil.
func (s *Scratch) release() {
	if s == nil {
		return
	}
	for id, f := range s.files {
		s.putAcc(f)
		delete(s.files, id)
	}
	clear(s.jobStart)
	clear(s.jobNodes)
	for job, set := range s.jobFiles {
		clear(set)
		s.setFree = append(s.setFree, set)
		delete(s.jobFiles, job)
	}
	s.edges = s.edges[:0]
	s.ids = s.ids[:0]
}

// ReclaimReport returns a no-longer-needed Report's statistics objects
// to the scratch pools and poisons the report. Call it only when the
// report is discarded after use (core.Arena.Recycle does); a retained
// report must never be reclaimed.
func ReclaimReport(s *Scratch, r *Report) {
	if s == nil || r == nil {
		return
	}
	putHist := func(h *stats.Hist) {
		if h != nil {
			h.Reset()
			s.histFree = append(s.histFree, h)
		}
	}
	putCDF := func(c *stats.CDF) {
		if c != nil {
			c.Reset()
			s.cdfFree = append(s.cdfFree, c)
		}
	}
	putHist(r.NodesPerJob)
	putHist(r.FilesPerJob)
	putHist(r.IntervalHist)
	putHist(r.ReqSizeHist)
	putCDF(r.FileSizeCDF)
	putCDF(r.ReadCountBySize)
	putCDF(r.ReadBytesBySize)
	putCDF(r.WriteCountBySize)
	putCDF(r.WriteBytesBySize)
	for _, m := range []map[FileClass]*stats.CDF{r.SeqPct, r.ConsPct, r.ByteSharing, r.BlockSharing} {
		for _, c := range m {
			putCDF(c)
		}
	}
	*r = Report{}
}
