package analysis

import "repro/internal/stats"

// Scratch pools the analyzer's working state across studies: one
// dense state (see Online), emptied when the next analyzer takes it,
// and -- via ReclaimReport -- the CDFs and histograms a discarded
// Report carried. A worker that analyzes many traces back to back (see
// core.Arena) allocates this state once and reuses it.
//
// Its pool methods accept a nil receiver and then fall back to fresh
// allocation, so the scratch-threaded code paths serve the one-shot
// Analyze entry point unchanged. A Scratch is not safe for concurrent
// use; give each worker its own. The zero value is ready to use.
type Scratch struct {
	st       state
	cdfFree  []*stats.CDF
	histFree []*stats.Hist
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
