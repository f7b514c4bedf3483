package analysis

import (
	"cmp"
	"slices"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Online is the incremental analyzer: it consumes a postprocessed
// (time-ordered) event stream one record at a time and produces
// exactly the Report the batch Analyze does -- Analyze is a thin loop
// over it, so the two paths cannot drift.
// Its working state grows with the files, (file, node) pairs and jobs
// the stream names and with the distinct values its statistics see
// (request sizes, intervals, disjoint byte ranges), never with the
// events themselves, which is what lets core's streaming study
// pipeline analyze traces far larger than memory.
//
// Use: Observe every event in stream order, then Finish exactly once.
type Online struct {
	st         *state
	r          *Report
	blockBytes int64
	lastT      sim.Time
}

// state is the analyzer's working state. Files, (file, node) pairs and
// jobs live in slices, each interned by one map, so an event costs at
// most one map lookup; a file's pairs form a list through
// nodeStream.next.
type state struct {
	files []fileAcc
	pairs []nodeStream
	jobs  []jobAcc

	fileIdx map[uint64]int32
	pairIdx map[pairKey]int32
	jobIdx  map[uint32]int32
	opened  map[fileJob]bool    // each job's files; true once it created one
	more    map[setKey]struct{} // valueSet members past the inline ones

	last       []int32 // each node's last pair, or -1
	edges      []edge  // job concurrency transitions
	order      []int32 // file indices by ascending id, for Finish
	byteEdges  []posEdge
	blockEdges []posEdge
}

// pairKey is a (file, node) pair's map key. The node is widened so the
// key has no padding and hashes as one 16-byte block.
type pairKey struct{ file, node uint64 }

type fileJob struct {
	file int32
	job  uint32
}

// setKey is one overflow member: value v of file's gaps (gaps 1) or
// request sizes (gaps 0).
type setKey struct {
	v    int64
	file int32
	gaps int32
}

// jobAcc is one job's bookkeeping.
type jobAcc struct {
	start   sim.Time
	nodes   int
	files   int // distinct files the job opened (Table 1)
	started bool
}

// reset empties the state, keeping its storage.
func (st *state) reset() {
	if st.fileIdx == nil {
		st.fileIdx, st.pairIdx, st.jobIdx = make(map[uint64]int32), make(map[pairKey]int32), make(map[uint32]int32)
		st.opened, st.more = make(map[fileJob]bool), make(map[setKey]struct{})
	}
	clear(st.fileIdx)
	clear(st.pairIdx)
	clear(st.jobIdx)
	clear(st.opened)
	clear(st.more)
	st.files, st.pairs, st.jobs, st.edges, st.last = st.files[:0], st.pairs[:0], st.jobs[:0], st.edges[:0], st.last[:0]
}

// file interns file id.
func (st *state) file(id uint64) int32 {
	i, ok := st.fileIdx[id]
	if !ok {
		i = int32(len(st.files))
		st.fileIdx[id] = i
		st.files = append(st.files, fileAcc{id: id, firstPair: -1})
	}
	return i
}

// pair interns the (file, node) pair, reusing a pooled pair's ranges.
// While a node stays on one file, its last pair answers with no map
// lookup.
func (st *state) pair(id uint64, node uint16) *nodeStream {
	for int(node) >= len(st.last) {
		st.last = append(st.last, -1)
	}
	if i := st.last[node]; i >= 0 && st.files[st.pairs[i].file].id == id {
		return &st.pairs[i]
	}
	key := pairKey{id, uint64(node)}
	if i, ok := st.pairIdx[key]; ok {
		st.last[node] = i
		return &st.pairs[i]
	}
	fi := st.file(id)
	i := int32(len(st.pairs))
	st.pairIdx[key] = i
	st.pairs = slices.Grow(st.pairs, 1)[:i+1]
	p := &st.pairs[i]
	*p = nodeStream{file: fi, next: st.files[fi].firstPair, ranges: p.ranges[:0]}
	st.files[fi].firstPair = i
	st.last[node] = i
	return p
}

// job interns job id.
func (st *state) job(id uint32) *jobAcc {
	i, ok := st.jobIdx[id]
	if !ok {
		i = int32(len(st.jobs))
		st.jobIdx[id] = i
		st.jobs = append(st.jobs, jobAcc{})
	}
	return &st.jobs[i]
}

// add puts key.v into set, one of file key.file's value sets.
func (st *state) add(set *valueSet, key setKey) {
	if slices.Contains(set.vals[:min(set.n, len(set.vals))], key.v) {
		return
	}
	if set.n < len(set.vals) {
		set.vals[set.n] = key.v
	} else if _, ok := st.more[key]; ok {
		return
	} else {
		st.more[key] = struct{}{}
	}
	set.n++
}

// NewOnline returns an incremental analyzer with freshly allocated
// working state.
func NewOnline(header trace.Header) *Online {
	return OnlineInto(nil, header)
}

// OnlineInto is NewOnline drawing its working state from the given
// scratch, which a worker reuses across studies (see core's sweep
// worker); the analyzer must be finished before the scratch serves
// another. The Report that Finish returns is freshly allocated, so it
// stays valid however the scratch is reused. A nil scratch allocates
// the state fresh (identical to NewOnline).
func OnlineInto(s *Scratch, header trace.Header) *Online {
	st := new(state)
	if s != nil {
		st = &s.st
	}
	st.reset()
	return &Online{
		st: st,
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
	}
}

// Observe feeds the analyzer one event. Events must arrive in
// postprocessed stream order; ev is not retained.
func (o *Online) Observe(ev *trace.Event) {
	r, st := o.r, o.st
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
		j := st.job(ev.Job)
		j.start, j.nodes, j.started = t, nodes, true
		st.edges = append(st.edges, edge{t, +1})
	case trace.EvJobEnd:
		if i, ok := st.jobIdx[ev.Job]; ok && st.jobs[i].started {
			j := &st.jobs[i]
			r.NodeTime[j.nodes] += float64(j.nodes) * (t - j.start).ToSeconds()
		}
		st.edges = append(st.edges, edge{t, -1})
	case trace.EvOpen:
		r.TotalOpens++
		if int(ev.Mode) < len(r.ModeOpens) {
			r.ModeOpens[ev.Mode]++
		}
		p := st.pair(ev.File, ev.Node)
		f := &st.files[p.file]
		f.opens++
		if p.handles++; p.handles == 1 { // the node's first handle
			f.openNodes++
			f.maxOpenNodes = max(f.maxOpenNodes, f.openNodes)
		}
		key, create := fileJob{p.file, ev.Job}, ev.Flags&trace.FlagCreate != 0
		created, seen := st.opened[key]
		if !seen {
			st.job(ev.Job).files++
		}
		if !seen || create && !created {
			st.opened[key] = create
		}
	case trace.EvClose:
		p := st.pair(ev.File, ev.Node)
		f := &st.files[p.file]
		if p.handles--; p.handles == 0 { // the node's last handle
			f.openNodes--
		}
		f.sizeAtClose, f.closed = ev.Size, true
	case trace.EvDelete:
		i := st.file(ev.File)
		if st.opened[fileJob{i, ev.Job}] {
			st.files[i].tempOpens = st.files[i].opens
		}
	case trace.EvRead, trace.EvWrite, trace.EvReadStrided, trace.EvWriteStrided:
		// A strided request is one request whose effective size is the
		// whole pattern; its per-record ranges still matter for
		// sharing and coverage.
		size := ev.Bytes()
		p := st.pair(ev.File, ev.Node)
		f := &st.files[p.file]
		if ev.IsWriteOp() {
			r.WriteCountBySize.Add(float64(size))
			f.writes++
			f.bytesWritten += size
		} else {
			r.ReadCountBySize.Add(float64(size))
			f.reads++
			f.bytesRead += size
		}
		if !p.data {
			p.data = true
			f.streams++
		}
		st.add(&f.sizes, setKey{v: size, file: p.file})
		switch {
		case !ev.IsStrided():
			// The paper's "interval" is the gap between where one
			// request ended and the next began, for sequential
			// follow-ons.
			if gap := ev.Offset - p.prevEnd; p.count > 0 && gap >= 0 {
				st.add(&f.gaps, setKey{v: gap, file: p.file, gaps: 1})
			}
			p.judge(ev.Offset, ev.Offset+ev.Size)
			p.addRange(ev.Offset, ev.Size)
		case ev.Count > 0:
			p.judge(ev.Offset, ev.Offset+int64(ev.Count-1)*ev.Stride+ev.Size)
			ev.Records(p.addRange)
		}
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
	r, st := o.r, o.st
	if horizon <= 0 {
		horizon = o.lastT
	}
	r.Horizon = horizon
	r.JobConcurrency = concurrencyFromEdges(st.edges, horizon)

	// Traced jobs: those that opened at least one file.
	for _, j := range st.jobs {
		if j.files > 0 {
			r.TracedJobs++
			r.FilesPerJob.Add(int64(j.files))
		}
	}

	// Per-file statistics, in ascending file id.
	st.order = st.order[:0]
	for i := range st.files {
		st.order = append(st.order, int32(i))
	}
	slices.SortFunc(st.order, func(a, b int32) int { return cmp.Compare(st.files[a].id, st.files[b].id) })

	var tempOpens int64
	var roFiles, woFiles int
	var roBytes, woBytes float64
	var oneIntervalZero, oneIntervalTotal int64
	for _, i := range st.order {
		f := &st.files[i]
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
		if f.reads+f.writes > 1 {
			if seqPct, consPct, ok := st.seqConsPct(f); ok {
				r.SeqPct[class].Add(seqPct)
				r.ConsPct[class].Add(consPct)
			}
		}

		// Table 2.
		r.IntervalHist.Add(int64(f.gaps.n))
		if f.gaps.n == 1 {
			oneIntervalTotal++
			if f.gaps.vals[0] == 0 {
				oneIntervalZero++
			}
		}

		// Table 3.
		r.ReqSizeHist.Add(int64(f.sizes.n))

		// Figure 7: concurrently open on >= 2 nodes.
		if f.maxOpenNodes >= 2 {
			if bytePct, blockPct, ok := st.sharing(f, o.blockBytes); ok {
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

	o.r, o.st = nil, nil // poison: Observe/Finish after Finish is a bug
	return r
}
