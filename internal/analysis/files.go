// Package analysis computes every workload characteristic reported in
// the paper from a postprocessed CHARISMA event stream: the job mix
// (Figures 1-2), file populations and sizes (Section 4.2, Figure 3,
// Table 1), request sizes (Figure 4), sequentiality and consecutiveness
// (Figures 5-6), interval and request-size regularity (Tables 2-3),
// I/O-mode usage (Section 4.6), and inter-node sharing (Figure 7).
package analysis

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/trace"
)

// FileClass categorizes a file by what was actually done to it during
// the traced period, the paper's Section 4.2 taxonomy.
type FileClass int

// File classes.
const (
	Untouched FileClass = iota // opened but neither read nor written
	ReadOnly
	WriteOnly
	ReadWrite
	numClasses
)

// String names the class as the paper's figures do.
func (c FileClass) String() string {
	switch c {
	case Untouched:
		return "Untouched"
	case ReadOnly:
		return "Read-Only"
	case WriteOnly:
		return "Write-Only"
	case ReadWrite:
		return "Read-Write"
	}
	return "Unknown"
}

// span is a half-open byte range [Start, End).
type span struct{ Start, End int64 }

// nodeStream accumulates one compute node's request stream against one
// file. A node's first request is judged against the start of the file
// (previous offset -1, previous end 0): a node that begins anywhere
// past byte zero has skipped bytes, which is how a partitioned or
// interleaved parallel read shows up as sequential-but-not-consecutive
// even when each node makes a single request. Intervals, however,
// require an actual predecessor request.
type nodeStream struct {
	count     int64
	judged    int64 // every request is judged (first against file start)
	seq       int64 // requests at a strictly higher offset than the previous
	cons      int64 // requests starting exactly at the previous end
	prevOff   int64
	prevEnd   int64
	intervals map[int64]int64 // gap size -> occurrences
	ranges    []span          // accessed byte ranges (coalesced opportunistically)
}

func (s *nodeStream) record(off, size int64) {
	if s.count == 0 {
		s.prevOff = -1
		s.prevEnd = 0
	}
	s.judged++
	if off > s.prevOff {
		s.seq++
	}
	if off == s.prevEnd {
		s.cons++
	}
	if s.count > 0 {
		// The paper's "interval" is the gap between where one request
		// ended and the next began, for sequential follow-ons.
		if gap := off - s.prevEnd; gap >= 0 {
			if s.intervals == nil {
				s.intervals = make(map[int64]int64, 2)
			}
			s.intervals[gap]++
		}
	}
	s.count++
	s.prevOff = off
	s.prevEnd = off + size
	s.addRange(off, size)
}

// addRange tracks the byte range [off, off+size) for sharing,
// coalescing it with the previous range when they touch. The end
// saturates at math.MaxInt64, so a request near the top of the offset
// space (a crafted .trc event, say) cannot wrap into a range that ends
// before it starts.
func (s *nodeStream) addRange(off, size int64) {
	if size <= 0 {
		return
	}
	end := off + size
	if end < off {
		end = math.MaxInt64
	}
	if n := len(s.ranges); n > 0 && s.ranges[n-1].End == off {
		s.ranges[n-1].End = end
	} else {
		s.ranges = append(s.ranges, span{off, end})
	}
}

// recordStrided folds one strided request into the stream: judged as
// a single request spanning the pattern (strided requests exist
// precisely so a regular pattern is one request), with each record's
// byte range tracked for sharing.
func (s *nodeStream) recordStrided(ev *trace.Event) {
	if ev.Count == 0 {
		return
	}
	if s.count == 0 {
		s.prevOff = -1
		s.prevEnd = 0
	}
	s.judged++
	if ev.Offset > s.prevOff {
		s.seq++
	}
	if ev.Offset == s.prevEnd {
		s.cons++
	}
	s.count++
	s.prevOff = ev.Offset
	s.prevEnd = ev.Offset + int64(ev.Count-1)*ev.Stride + ev.Size
	ev.Records(s.addRange)
}

// mergedRangesInto returns the node's accessed ranges as a disjoint,
// sorted set, built in buf (which must be empty); the result aliases
// buf's backing array when it is large enough.
func (s *nodeStream) mergedRangesInto(buf []span) []span {
	rs := append(buf, s.ranges...)
	if len(rs) <= 1 {
		return rs
	}
	slices.SortFunc(rs, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Start <= last.End {
			if r.End > last.End {
				last.End = r.End
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}

// posEdge is a +1/-1 coverage transition at a byte or block position,
// used by fileAcc.sharing's sweeps over merged ranges.
type posEdge struct {
	pos   int64
	delta int
}

// coverage sorts edges by position and integrates the depth between
// them: union is the length covered at depth >= 1, shared the length
// at depth >= 2. The order of edges at one position changes neither.
func coverage(edges []posEdge) (union, shared int64) {
	slices.SortFunc(edges, func(a, b posEdge) int { return cmp.Compare(a.pos, b.pos) })
	depth := 0
	var prev int64
	for _, e := range edges {
		if depth >= 1 {
			union += e.pos - prev
		}
		if depth >= 2 {
			shared += e.pos - prev
		}
		prev = e.pos
		depth += e.delta
	}
	return union, shared
}

// fileAcc accumulates per-file state across the event stream.
type fileAcc struct {
	id    uint64
	opens int

	reads, writes           int64
	bytesRead, bytesWritten int64
	sizeAtClose             int64
	closed                  bool

	streams map[uint16]*nodeStream
	// reqSizes collects the distinct request sizes used against the
	// file across all nodes (Table 3).
	reqSizes map[int64]struct{}

	// open-concurrency tracking: how many handles each node holds now,
	// how many nodes hold at least one, and the max number of distinct
	// nodes holding the file open at once (drives Figure 7's
	// "concurrently opened" filter).
	openHandles  map[uint16]int
	openNodes    int
	maxOpenNodes int

	createdByJobs map[uint32]bool
	tempOpens     int // opens charged as temporary (Section 4.2)
}

func newFileAcc(id uint64) *fileAcc {
	return &fileAcc{
		id:            id,
		streams:       make(map[uint16]*nodeStream),
		reqSizes:      make(map[int64]struct{}),
		openHandles:   make(map[uint16]int),
		createdByJobs: make(map[uint32]bool),
	}
}

func (f *fileAcc) stream(node uint16, s *Scratch) *nodeStream {
	st := f.streams[node]
	if st == nil {
		st = s.getStream()
		f.streams[node] = st
	}
	return st
}

// class returns the file's Section 4.2 classification.
func (f *fileAcc) class() FileClass {
	switch {
	case f.reads > 0 && f.writes > 0:
		return ReadWrite
	case f.reads > 0:
		return ReadOnly
	case f.writes > 0:
		return WriteOnly
	default:
		return Untouched
	}
}

// totalRequests sums the per-node request counts.
func (f *fileAcc) totalRequests() int64 { return f.reads + f.writes }

// distinctIntervals returns the number of distinct interval sizes used
// across all nodes (Table 2), and whether every interval was zero.
func (f *fileAcc) distinctIntervals(s *Scratch) (n int, allZero bool) {
	seen := s.seenMap()
	for _, st := range f.streams {
		for gap := range st.intervals {
			seen[gap] = struct{}{}
		}
	}
	_, hasZero := seen[0]
	return len(seen), len(seen) == 1 && hasZero
}

// seqConsPct returns the percentage of judged requests that were
// sequential and consecutive, over all nodes. ok is false when the
// file saw no data requests at all.
func (f *fileAcc) seqConsPct() (seqPct, consPct float64, ok bool) {
	var judged, seq, cons int64
	for _, s := range f.streams {
		judged += s.judged
		seq += s.seq
		cons += s.cons
	}
	if judged == 0 {
		return 0, 0, false
	}
	return 100 * float64(seq) / float64(judged), 100 * float64(cons) / float64(judged), true
}

// sharing computes the fraction of accessed bytes and accessed blocks
// touched by two or more distinct nodes, each with one sweep over
// +1/-1 edges. A node's merged byte ranges give the byte edges; the
// same ranges widened to whole blocks give the block edges, once a
// run that meets the node's previous run in a boundary block is folded
// into it. A node's runs are then disjoint, so the depth over a block
// is the number of distinct nodes that touch it.
func (f *fileAcc) sharing(blockBytes int64, s *Scratch) (bytePct, blockPct float64, ok bool) {
	if len(f.streams) < 2 {
		return 0, 0, false
	}
	var edges, blockEdges []posEdge
	var mbuf []span
	if s != nil {
		edges, blockEdges, mbuf = s.shareEdges[:0], s.blockEdges[:0], s.mergeBuf
	}
	for _, st := range f.streams {
		merged := st.mergedRangesInto(mbuf[:0])
		first := len(blockEdges)
		for _, r := range merged {
			edges = append(edges, posEdge{r.Start, +1}, posEdge{r.End, -1})
			lo, hi := r.Start/blockBytes, (r.End-1)/blockBytes+1
			if last := len(blockEdges) - 1; last > first && lo <= blockEdges[last].pos {
				blockEdges[last].pos = hi
			} else {
				blockEdges = append(blockEdges, posEdge{lo, +1}, posEdge{hi, -1})
			}
		}
		mbuf = merged
	}
	if s != nil {
		s.shareEdges, s.blockEdges, s.mergeBuf = edges, blockEdges, mbuf
	}
	union, shared := coverage(edges)
	blockUnion, blockShared := coverage(blockEdges)
	if union == 0 || blockUnion == 0 {
		return 0, 0, false
	}
	return 100 * float64(shared) / float64(union),
		100 * float64(blockShared) / float64(blockUnion), true
}

// observe feeds one event into the accumulator. The scratch (nil for
// one-shot analysis) supplies pooled node streams.
func (f *fileAcc) observe(ev *trace.Event, s *Scratch) {
	switch ev.Type {
	case trace.EvOpen:
		f.opens++
		f.openHandles[ev.Node]++
		if f.openHandles[ev.Node] == 1 { // the node's first handle
			f.openNodes++
			f.maxOpenNodes = max(f.maxOpenNodes, f.openNodes)
		}
		if ev.Flags&trace.FlagCreate != 0 {
			f.createdByJobs[ev.Job] = true
		}
	case trace.EvClose:
		f.openHandles[ev.Node]--
		if f.openHandles[ev.Node] == 0 { // the node's last handle
			f.openNodes--
		}
		f.sizeAtClose = ev.Size
		f.closed = true
	case trace.EvRead:
		f.reads++
		f.bytesRead += ev.Size
		f.reqSizes[ev.Size] = struct{}{}
		f.stream(ev.Node, s).record(ev.Offset, ev.Size)
	case trace.EvWrite:
		f.writes++
		f.bytesWritten += ev.Size
		f.reqSizes[ev.Size] = struct{}{}
		f.stream(ev.Node, s).record(ev.Offset, ev.Size)
	case trace.EvReadStrided, trace.EvWriteStrided:
		// A strided request is one request whose effective size is the
		// whole pattern; its per-record ranges still matter for
		// sharing and coverage.
		if ev.Type == trace.EvReadStrided {
			f.reads++
			f.bytesRead += ev.Bytes()
		} else {
			f.writes++
			f.bytesWritten += ev.Bytes()
		}
		f.reqSizes[ev.Bytes()] = struct{}{}
		f.stream(ev.Node, s).recordStrided(ev)
	case trace.EvDelete:
		if f.createdByJobs[ev.Job] {
			f.tempOpens = f.opens
		}
	}
}
