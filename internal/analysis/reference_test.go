package analysis

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// refOnline is the analyzer as it stood before its working state went
// dense, kept as the oracle for TestOnlineMatchesReference and
// CheckSharing: a map of per-file accumulators, each with maps of
// per-node request streams (each with its own interval map), request
// sizes, open handles and creating jobs, and job bookkeeping in maps.
// It allocates everything fresh.
type refOnline struct {
	r          *Report
	blockBytes int64

	files    map[uint64]*refFileAcc
	jobStart map[uint32]sim.Time
	jobNodes map[uint32]int
	jobFiles map[uint32]map[uint64]struct{}
	edges    []edge
	lastT    sim.Time
}

func newRefOnline(header trace.Header) *refOnline {
	return &refOnline{
		r: &Report{
			Header:         header,
			JobConcurrency: make(map[int]sim.Time),
			NodesPerJob:    new(stats.Hist),
			NodeTime:       make(map[int]float64),
			FilesPerJob:    new(stats.Hist),
			FilesByClass:   make(map[FileClass]int),
			FileSizeCDF:    new(stats.CDF),

			ReadCountBySize:  new(stats.CDF),
			ReadBytesBySize:  new(stats.CDF),
			WriteCountBySize: new(stats.CDF),
			WriteBytesBySize: new(stats.CDF),

			SeqPct:       newClassCDFs(),
			ConsPct:      newClassCDFs(),
			IntervalHist: new(stats.Hist),
			ReqSizeHist:  new(stats.Hist),
			ByteSharing:  newClassCDFs(),
			BlockSharing: newClassCDFs(),
		},
		blockBytes: header.BlockSize(),
		files:      make(map[uint64]*refFileAcc),
		jobStart:   make(map[uint32]sim.Time),
		jobNodes:   make(map[uint32]int),
		jobFiles:   make(map[uint32]map[uint64]struct{}),
	}
}

func (o *refOnline) file(id uint64) *refFileAcc {
	f := o.files[id]
	if f == nil {
		f = &refFileAcc{
			id:            id,
			streams:       make(map[uint16]*refNodeStream),
			reqSizes:      make(map[int64]struct{}),
			openHandles:   make(map[uint16]int),
			createdByJobs: make(map[uint32]bool),
		}
		o.files[id] = f
	}
	return f
}

func (o *refOnline) Observe(ev *trace.Event) {
	r := o.r
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
			o.jobFiles[ev.Job] = make(map[uint64]struct{})
		}
		o.jobFiles[ev.Job][ev.File] = struct{}{}
		o.file(ev.File).observe(ev)
	case trace.EvClose, trace.EvDelete:
		o.file(ev.File).observe(ev)
	case trace.EvRead:
		r.ReadCountBySize.Add(float64(ev.Size))
		o.file(ev.File).observe(ev)
	case trace.EvWrite:
		r.WriteCountBySize.Add(float64(ev.Size))
		o.file(ev.File).observe(ev)
	case trace.EvReadStrided:
		r.ReadCountBySize.Add(float64(ev.Bytes()))
		o.file(ev.File).observe(ev)
	case trace.EvWriteStrided:
		r.WriteCountBySize.Add(float64(ev.Bytes()))
		o.file(ev.File).observe(ev)
	}
}

func (o *refOnline) Finish(horizon sim.Time) *Report {
	r := o.r
	if horizon <= 0 {
		horizon = o.lastT
	}
	r.Horizon = horizon
	r.JobConcurrency = concurrencyFromEdges(o.edges, horizon)
	r.TracedJobs = len(o.jobFiles)
	for _, fs := range o.jobFiles {
		r.FilesPerJob.Add(int64(len(fs)))
	}
	ids := make([]uint64, 0, len(o.files))
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
		if f.reads+f.writes > 1 {
			if seqPct, consPct, ok := f.seqConsPct(); ok {
				r.SeqPct[class].Add(seqPct)
				r.ConsPct[class].Add(consPct)
			}
		}
		nIntervals, allZero := f.distinctIntervals()
		r.IntervalHist.Add(int64(nIntervals))
		if nIntervals == 1 {
			oneIntervalTotal++
			if allZero {
				oneIntervalZero++
			}
		}
		r.ReqSizeHist.Add(int64(len(f.reqSizes)))
		if f.maxOpenNodes >= 2 {
			if bytePct, blockPct, ok := f.sharing(o.blockBytes); ok {
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
	fillBytesBySize(r.ReadCountBySize, r.ReadBytesBySize)
	fillBytesBySize(r.WriteCountBySize, r.WriteBytesBySize)
	r.SmallReadFrac = r.ReadCountBySize.At(SmallRequestBytes - 1)
	r.SmallWriteFrac = r.WriteCountBySize.At(SmallRequestBytes - 1)
	r.SmallReadData = r.ReadBytesBySize.At(SmallRequestBytes - 1)
	r.SmallWriteData = r.WriteBytesBySize.At(SmallRequestBytes - 1)
	return r
}

// refNodeStream is one node's request stream against one file.
type refNodeStream struct {
	count     int64
	judged    int64
	seq       int64
	cons      int64
	prevOff   int64
	prevEnd   int64
	intervals map[int64]int64
	ranges    []span
}

func (s *refNodeStream) record(off, size int64) {
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

func (s *refNodeStream) addRange(off, size int64) {
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

func (s *refNodeStream) recordStrided(ev *trace.Event) {
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

// mergedRanges returns the node's accessed ranges as a disjoint,
// sorted set.
func (s *refNodeStream) mergedRanges() []span {
	rs := slices.Clone(s.ranges)
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

// refFileAcc is one file's accumulator.
type refFileAcc struct {
	id    uint64
	opens int

	reads, writes           int64
	bytesRead, bytesWritten int64
	sizeAtClose             int64
	closed                  bool

	streams  map[uint16]*refNodeStream
	reqSizes map[int64]struct{}

	openHandles  map[uint16]int
	openNodes    int
	maxOpenNodes int

	createdByJobs map[uint32]bool
	tempOpens     int
}

func (f *refFileAcc) stream(node uint16) *refNodeStream {
	st := f.streams[node]
	if st == nil {
		st = &refNodeStream{}
		f.streams[node] = st
	}
	return st
}

func (f *refFileAcc) class() FileClass {
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

func (f *refFileAcc) distinctIntervals() (n int, allZero bool) {
	seen := make(map[int64]struct{})
	for _, st := range f.streams {
		for gap := range st.intervals {
			seen[gap] = struct{}{}
		}
	}
	_, hasZero := seen[0]
	return len(seen), len(seen) == 1 && hasZero
}

func (f *refFileAcc) seqConsPct() (seqPct, consPct float64, ok bool) {
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

// sharing is Figure 7's sharing by the two edge sweeps, bytes and
// per-node block runs, each over its own sort.
func (f *refFileAcc) sharing(blockBytes int64) (bytePct, blockPct float64, ok bool) {
	if len(f.streams) < 2 {
		return 0, 0, false
	}
	var edges, blockEdges []posEdge
	for _, st := range f.streams {
		first := len(blockEdges)
		for _, r := range st.mergedRanges() {
			edges = append(edges, posEdge{r.Start, +1}, posEdge{r.End, -1})
			lo, hi := r.Start/blockBytes, (r.End-1)/blockBytes+1
			if last := len(blockEdges) - 1; last > first && lo <= blockEdges[last].pos {
				blockEdges[last].pos = hi
			} else {
				blockEdges = append(blockEdges, posEdge{lo, +1}, posEdge{hi, -1})
			}
		}
	}
	sweep := func(edges []posEdge) (union, shared int64) {
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
	union, shared := sweep(edges)
	blockUnion, blockShared := sweep(blockEdges)
	if union == 0 || blockUnion == 0 {
		return 0, 0, false
	}
	return 100 * float64(shared) / float64(union),
		100 * float64(blockShared) / float64(blockUnion), true
}

func (f *refFileAcc) observe(ev *trace.Event) {
	switch ev.Type {
	case trace.EvOpen:
		f.opens++
		f.openHandles[ev.Node]++
		if f.openHandles[ev.Node] == 1 {
			f.openNodes++
			f.maxOpenNodes = max(f.maxOpenNodes, f.openNodes)
		}
		if ev.Flags&trace.FlagCreate != 0 {
			f.createdByJobs[ev.Job] = true
		}
	case trace.EvClose:
		f.openHandles[ev.Node]--
		if f.openHandles[ev.Node] == 0 {
			f.openNodes--
		}
		f.sizeAtClose = ev.Size
		f.closed = true
	case trace.EvRead:
		f.reads++
		f.bytesRead += ev.Size
		f.reqSizes[ev.Size] = struct{}{}
		f.stream(ev.Node).record(ev.Offset, ev.Size)
	case trace.EvWrite:
		f.writes++
		f.bytesWritten += ev.Size
		f.reqSizes[ev.Size] = struct{}{}
		f.stream(ev.Node).record(ev.Offset, ev.Size)
	case trace.EvReadStrided, trace.EvWriteStrided:
		if ev.Type == trace.EvReadStrided {
			f.reads++
			f.bytesRead += ev.Bytes()
		} else {
			f.writes++
			f.bytesWritten += ev.Bytes()
		}
		f.reqSizes[ev.Bytes()] = struct{}{}
		f.stream(ev.Node).recordStrided(ev)
	case trace.EvDelete:
		if f.createdByJobs[ev.Job] {
			f.tempOpens = f.opens
		}
	}
}

// referenceSharing is Figure 7's sharing computed the direct way, kept
// as the oracle for the analyzer's interval sweeps: the byte share
// from one edge sweep with starts ordered before ends at equal
// positions, and the block share by marking every block each node
// touches in a per-node set and counting, per block, the nodes that
// marked it. It costs one map insert per block a request spans, so
// feed it only ranges that span few blocks.
func referenceSharing(f *refFileAcc, blockBytes int64) (bytePct, blockPct float64, ok bool) {
	if len(f.streams) < 2 {
		return 0, 0, false
	}
	var edges []posEdge
	blocks := make(map[int64]int)
	for _, st := range f.streams {
		nodeBlocks := make(map[int64]struct{})
		for _, r := range st.mergedRanges() {
			edges = append(edges, posEdge{r.Start, +1}, posEdge{r.End, -1})
			for b := r.Start / blockBytes; b <= (r.End-1)/blockBytes; b++ {
				nodeBlocks[b] = struct{}{}
			}
		}
		for b := range nodeBlocks {
			blocks[b]++
		}
	}
	if len(edges) == 0 {
		return 0, 0, false
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].pos != edges[j].pos {
			return edges[i].pos < edges[j].pos
		}
		return edges[i].delta > edges[j].delta // starts before ends at ties
	})
	var union, shared int64
	depth := 0
	prev := edges[0].pos
	for _, e := range edges {
		if e.pos > prev {
			if depth >= 1 {
				union += e.pos - prev
			}
			if depth >= 2 {
				shared += e.pos - prev
			}
		}
		prev = e.pos
		depth += e.delta
	}
	var blockUnion, blockShared int64
	for _, nodes := range blocks {
		blockUnion++
		if nodes >= 2 {
			blockShared++
		}
	}
	if union == 0 || blockUnion == 0 {
		return 0, 0, false
	}
	return 100 * float64(shared) / float64(union),
		100 * float64(blockShared) / float64(blockUnion), true
}
