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
// file: a (file, node) pair. A node's first request is judged against
// the start of the file (previous offset -1, previous end 0): a node
// that begins anywhere past byte zero has skipped bytes, which is how a
// partitioned or interleaved parallel read shows up as
// sequential-but-not-consecutive even when each node makes a single
// request. Intervals, however, require an actual predecessor request.
type nodeStream struct {
	count   int64 // requests, each judged (the first against file start)
	seq     int64 // requests at a strictly higher offset than the previous
	cons    int64 // requests starting exactly at the previous end
	prevOff int64
	prevEnd int64
	ranges  []span // accessed byte ranges, merged once they double
	merged  int    // len(ranges) after the last merge
	handles int    // handles the node holds on the file now
	file    int32  // the file's index in the analyzer's state
	next    int32  // the file's next pair, or -1
	data    bool   // the node has issued a read or write
}

// judge counts one request spanning [off, end) against the previous.
func (s *nodeStream) judge(off, end int64) {
	if s.count == 0 {
		s.prevOff, s.prevEnd = -1, 0
	}
	if off > s.prevOff {
		s.seq++
	}
	if off == s.prevEnd {
		s.cons++
	}
	s.count++
	s.prevOff, s.prevEnd = off, end
}

// addRange tracks the byte range [off, off+size) for sharing,
// coalescing it with the previous range when they touch, and merging
// every range once they have doubled since the last merge, so a node
// that rereads a file keeps one range. The end saturates at
// math.MaxInt64, so a request near the top of the offset space (a
// crafted .trc event, say) cannot wrap into a range that ends before
// it starts.
func (s *nodeStream) addRange(off, size int64) {
	if size <= 0 {
		return
	}
	end := off + size
	if end < off {
		end = math.MaxInt64
	}
	n := len(s.ranges)
	if n > 0 && s.ranges[n-1].End == off {
		s.ranges[n-1].End = end
		return
	}
	if n >= max(2*s.merged, 16) {
		s.ranges = mergeRanges(s.ranges)
		s.merged = len(s.ranges)
	}
	s.ranges = append(s.ranges, span{off, end})
}

// mergeRanges sorts rs by start and merges ranges that overlap or
// touch, in place, returning the disjoint sorted set.
func mergeRanges(rs []span) []span {
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
// used by state.sharing's sweeps over merged ranges.
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

// valueSet counts the distinct values of one per-file statistic: the
// first few are kept inline, the rest in the analyzer's shared
// overflow set (see state.add).
type valueSet struct {
	n    int
	vals [4]int64
}

// fileAcc accumulates per-file state across the event stream.
type fileAcc struct {
	id    uint64
	opens int

	reads, writes           int64
	bytesRead, bytesWritten int64
	sizeAtClose             int64
	closed                  bool

	// Open concurrency: how many nodes hold at least one handle now,
	// and the most that ever did at once (drives Figure 7's
	// "concurrently opened" filter).
	openNodes    int
	maxOpenNodes int
	tempOpens    int // opens charged as temporary (Section 4.2)

	firstPair int32 // the file's first (file, node) pair, or -1
	streams   int   // pairs whose node issued a read or write

	sizes valueSet // distinct request sizes over all nodes (Table 3)
	gaps  valueSet // distinct interval sizes over all nodes (Table 2)
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

// seqConsPct returns the percentage of f's requests, over all nodes,
// that were sequential and consecutive. ok is false when the file saw
// no data requests at all.
func (st *state) seqConsPct(f *fileAcc) (seqPct, consPct float64, ok bool) {
	var judged, seq, cons int64
	for i := f.firstPair; i >= 0; i = st.pairs[i].next {
		p := &st.pairs[i]
		judged += p.count
		seq += p.seq
		cons += p.cons
	}
	if judged == 0 {
		return 0, 0, false
	}
	return 100 * float64(seq) / float64(judged), 100 * float64(cons) / float64(judged), true
}

// sharing computes the fraction of f's accessed bytes and accessed
// blocks touched by two or more distinct nodes, each with one sweep
// over +1/-1 edges. A node's merged byte ranges give the byte edges;
// the same ranges widened to whole blocks give the block edges, once a
// run that meets the node's previous run in a boundary block is folded
// into it. A node's runs are then disjoint, so the depth over a block
// is the number of distinct nodes that touch it. It merges each pair's
// ranges in place.
func (st *state) sharing(f *fileAcc, blockBytes int64) (bytePct, blockPct float64, ok bool) {
	if f.streams < 2 {
		return 0, 0, false
	}
	edges, blockEdges := st.byteEdges[:0], st.blockEdges[:0]
	for i := f.firstPair; i >= 0; i = st.pairs[i].next {
		p := &st.pairs[i]
		p.ranges = mergeRanges(p.ranges)
		first := len(blockEdges)
		for _, r := range p.ranges {
			edges = append(edges, posEdge{r.Start, +1}, posEdge{r.End, -1})
			lo, hi := r.Start/blockBytes, (r.End-1)/blockBytes+1
			if last := len(blockEdges) - 1; last > first && lo <= blockEdges[last].pos {
				blockEdges[last].pos = hi
			} else {
				blockEdges = append(blockEdges, posEdge{lo, +1}, posEdge{hi, -1})
			}
		}
	}
	st.byteEdges, st.blockEdges = edges, blockEdges
	union, shared := coverage(edges)
	blockUnion, blockShared := coverage(blockEdges)
	if union == 0 || blockUnion == 0 {
		return 0, 0, false
	}
	return 100 * float64(shared) / float64(union),
		100 * float64(blockShared) / float64(blockUnion), true
}
