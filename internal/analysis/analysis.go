package analysis

import (
	"sort"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SmallRequestBytes is the paper's threshold for a "small" request:
// fewer than 4000 bytes (just under the 4 KB block size).
const SmallRequestBytes = 4000

// Report holds every statistic the paper's evaluation section reports,
// keyed by the figure or table it regenerates.
type Report struct {
	Header trace.Header

	// Job mix -------------------------------------------------------
	TotalJobs      int
	SingleNodeJobs int
	MultiNodeJobs  int
	TracedJobs     int // jobs that produced at least one CFS event (lower bound, like the paper's)

	// Figure 1: virtual time spent with N jobs running.
	JobConcurrency map[int]sim.Time
	Horizon        sim.Time

	// Figure 2: distribution of compute nodes per job, and the share
	// of node-time consumed by each job size.
	NodesPerJob *stats.Hist
	NodeTime    map[int]float64 // job size -> node-seconds

	// Table 1: distinct files opened per traced job, bucketed
	// 1,2,3,4,5+.
	FilesPerJob *stats.Hist

	// Section 4.2: file populations.
	FilesOpened       int
	FilesByClass      map[FileClass]int
	TotalOpens        int64
	TempOpenFraction  float64 // fraction of opens to temporary files
	MeanBytesRead     float64 // per read-only-or-read-write file that read
	MeanBytesWritten  float64
	ReadWriteSameOpen int // files both read and written

	// Figure 3: file sizes at close.
	FileSizeCDF *stats.CDF

	// Figure 4: request sizes.
	ReadCountBySize  *stats.CDF // one sample per read, value = request size
	ReadBytesBySize  *stats.CDF // request size weighted by bytes moved
	WriteCountBySize *stats.CDF
	WriteBytesBySize *stats.CDF
	SmallReadFrac    float64 // fraction of reads under SmallRequestBytes
	SmallReadData    float64 // fraction of read bytes moved by them
	SmallWriteFrac   float64
	SmallWriteData   float64

	// Figures 5 and 6: per-file percent-sequential and
	// percent-consecutive CDFs by class.
	SeqPct  map[FileClass]*stats.CDF
	ConsPct map[FileClass]*stats.CDF

	// Table 2: distinct interval sizes per file.
	IntervalHist *stats.Hist // distinct-interval-count -> files
	// Fraction of 1-interval files whose single interval is zero
	// (purely consecutive); the paper reports >99%.
	OneIntervalZeroFrac float64

	// Table 3: distinct request sizes per file.
	ReqSizeHist *stats.Hist

	// Section 4.6: opens per I/O mode.
	ModeOpens [4]int64

	// Figure 7: byte- and block-granularity sharing CDFs among files
	// concurrently opened by multiple nodes.
	ByteSharing  map[FileClass]*stats.CDF
	BlockSharing map[FileClass]*stats.CDF

	// Degradation is the injected-fault summary, attached by the study
	// runner after analysis. Nil on a healthy machine, which keeps the
	// formatted report byte-identical to a fault-free build.
	Degradation *faults.Report
}

// Analyze computes a Report from a postprocessed (time-ordered) event
// stream. The horizon is the duration of the traced period; pass the
// simulation end time, or 0 to use the last event's timestamp. It is
// a loop over the incremental analyzer (see Online), so the streaming
// and batch paths produce identical reports by construction.
func Analyze(header trace.Header, events []trace.Event, horizon sim.Time) *Report {
	o := NewOnline(header)
	for i := range events {
		o.Observe(&events[i])
	}
	return o.Finish(horizon)
}

func newClassCDFs() map[FileClass]*stats.CDF {
	m := make(map[FileClass]*stats.CDF, numClasses)
	for c := Untouched; c < numClasses; c++ {
		m[c] = new(stats.CDF)
	}
	return m
}

// fillBytesBySize builds the bytes-weighted request-size CDF from the
// count CDF's samples. Each request of size s contributes s bytes of
// weight at position s. To bound memory, byte weights are added in
// kilobyte granules; Steps() gives distinct sizes and cumulative
// fractions, from which per-size counts are recovered by differencing.
func fillBytesBySize(counts, bytes *stats.CDF) {
	steps := counts.Steps()
	n := float64(counts.Len())
	prev := 0.0
	for _, st := range steps {
		countHere := (st.F - prev) * n
		prev = st.F
		granules := int(st.X * countHere / 1024)
		if granules < 1 && st.X*countHere > 0 {
			granules = 1
		}
		bytes.AddN(st.X, granules)
	}
}

// edge is a +1/-1 job-concurrency transition at time t.
type edge struct {
	t sim.Time
	d int
}

// concurrencyFromEdges integrates the +1/-1 job edges into time spent
// at each concurrency level over [0, horizon).
func concurrencyFromEdges(edges []edge, horizon sim.Time) map[int]sim.Time {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].d < edges[j].d
	})
	profile := make(map[int]sim.Time)
	var prev sim.Time
	level := 0
	for _, e := range edges {
		t := e.t
		if t > horizon {
			t = horizon
		}
		if t > prev {
			profile[level] += t - prev
			prev = t
		}
		level += e.d
	}
	if prev < horizon {
		profile[level] += horizon - prev
	}
	return profile
}
