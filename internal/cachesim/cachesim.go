// Package cachesim implements the paper's trace-driven cache
// simulations (Section 4.8): a compute-node cache over read-only files
// (Figure 8), an I/O-node cache swept over size, replacement policy,
// and I/O-node count (Figure 9), and the combined configuration that
// showed compute-node caches remove only ~3% of the I/O-node cache's
// hits (because most of those hits come from interprocess locality).
//
// Each experiment is one pass over the events, however many cache
// sizes it asks for. LRU sizes come from stack distances
// (cache.Stack): an LRU cache of capacity c hits exactly the accesses
// at distance 1..c, so one distance per access answers every size.
// FIFO, Clock and SLRU are not stack algorithms, so their sweeps drive
// one cache per (size, I/O node) side by side, splitting each event
// into blocks once; so does an I/O-node sweep of a single LRU size,
// where a stack would cost more than the one cache it replaces.
//
// Each experiment has one implementation, an observe form that takes
// the merged stream one event at a time: ComputeNodeSim (Figure 8, at
// every buffer count at once), IONodeSim (Figure 9: one policy and
// I/O-node count over a ladder of totals) and CombinedSim. A study
// feeds them from its one merge pass, so it need not keep its stream.
// The slice entry points (ComputeNodeSweep, IONodeSweep, CombinedPolicy
// and their one-size forms) are loops over them. Figure 8 and the
// combined experiment restrict the compute-node caches to read-only
// files, so their constructors take that set before the first event.
// The set does not depend on event order: ReadOnlySet collects it
// from a trace's raw blocks (trace.Reader.Blocks) without a merge.
package cachesim

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/cache"
	"repro/internal/trace"
)

// blockSpan returns the first and last 4 KB block indexes a request
// touches, and whether it touches any.
func blockSpan(off, size, blockBytes int64) (first, last int64, ok bool) {
	if size <= 0 {
		return 0, 0, false
	}
	return off / blockBytes, (off + size - 1) / blockBytes, true
}

// eventBlocks appends to blocks the distinct blocks a data event
// touches, in increasing order: the request's span for plain
// reads/writes, the union of record spans for strided requests.
// Callers pass the previous event's slice truncated to zero length,
// so one pass over a trace reuses a single backing array.
func eventBlocks(blocks []int64, ev *trace.Event, blockBytes int64) []int64 {
	if !ev.IsStrided() {
		first, last, ok := blockSpan(ev.Offset, ev.Size, blockBytes)
		if !ok {
			return blocks
		}
		for b := first; b <= last; b++ {
			blocks = append(blocks, b)
		}
		return blocks
	}
	var prev int64 = -1
	ev.Records(func(off, size int64) {
		first, last, ok := blockSpan(off, size, blockBytes)
		if !ok {
			return
		}
		for b := first; b <= last; b++ {
			if b > prev {
				blocks = append(blocks, b)
				prev = b
			}
		}
	})
	return blocks
}

// observeAll feeds a slice of events to an observe form, in order:
// each slice entry point is this loop over its form.
func observeAll(o interface{ Observe(*trace.Event) }, events []trace.Event) {
	for i := range events {
		o.Observe(&events[i])
	}
}

// ReadOnlySet accumulates the files a trace reads but never writes,
// the population the paper's compute-node simulation restricts itself
// to (write caching would need a consistency protocol). The set does
// not depend on the order the events come in. The zero value is empty.
type ReadOnlySet struct {
	modes map[uint64]uint8 // fileRead | fileWritten, per file
}

const (
	fileRead uint8 = 1 << iota
	fileWritten
)

// Observe records whether ev reads or writes its file.
func (s *ReadOnlySet) Observe(ev *trace.Event) {
	var m uint8
	switch ev.Type {
	case trace.EvRead, trace.EvReadStrided:
		m = fileRead
	case trace.EvWrite, trace.EvWriteStrided:
		m = fileWritten
	default:
		return
	}
	if s.modes == nil {
		s.modes = make(map[uint64]uint8)
	}
	s.modes[ev.File] |= m
}

// ObserveBlock observes every event of a raw trace block. It has the
// shape of a trace.Reader.Blocks callback: rd.Blocks(s.ObserveBlock)
// takes the set from a trace's blocks in arrival order.
func (s *ReadOnlySet) ObserveBlock(b trace.Block) error {
	observeAll(s, b.Events)
	return nil
}

// Files returns the files observed read and never written.
func (s *ReadOnlySet) Files() map[uint64]bool {
	ro := make(map[uint64]bool)
	for f, m := range s.modes {
		if m == fileRead {
			ro[f] = true
		}
	}
	return ro
}

// ReadOnlyFiles scans a trace and returns the set of files that were
// read but never written (a ReadOnlySet over the events).
func ReadOnlyFiles(events []trace.Event) map[uint64]bool {
	var s ReadOnlySet
	observeAll(&s, events)
	return s.Files()
}

// nodeKey names the compute node an event ran on within its job.
func nodeKey(ev *trace.Event) uint64 { return uint64(ev.Job)<<16 | uint64(ev.Node) }

// JobHitRate is one job's compute-node cache outcome.
type JobHitRate struct {
	Job      uint32
	Accesses int64
	Hits     int64
}

// Rate returns the job's hit rate.
func (j JobHitRate) Rate() float64 {
	if j.Accesses == 0 {
		return 0
	}
	return float64(j.Hits) / float64(j.Accesses)
}

// ComputeNodeCache runs the Figure 8 simulation: every compute node
// holds `buffers` 4 KB read-only buffers with LRU replacement; a
// request counts as a hit only when every block it touches is already
// buffered locally (no message to an I/O node needed). Results are
// reported per job, in order of each job's first read of a read-only
// file, over jobs that read read-only files.
func ComputeNodeCache(events []trace.Event, blockBytes int64, buffers int) []JobHitRate {
	return ComputeNodeSweep(events, blockBytes, []int{buffers})[0]
}

// ComputeNodeSweep is ComputeNodeCache at every size in buffers, in one
// pass of a ComputeNodeSim: out[i] holds the per-job results at
// buffers[i]. With no sizes there is nothing to simulate.
func ComputeNodeSweep(events []trace.Event, blockBytes int64, buffers []int) [][]JobHitRate {
	if len(buffers) == 0 {
		return nil
	}
	s := NewComputeNodeSim(ReadOnlyFiles(events), blockBytes, buffers)
	observeAll(s, events)
	return s.Results()
}

// ComputeNodeSim is the Figure 8 simulation in observe form, at every
// size of its buffer list at once.
//
// Each (job, node) pair keeps one LRU stack over its read-only blocks.
// An LRU cache of any size touches (and on a miss loads) every block
// of a request, so the stream of block accesses, and with it each
// block's stack distance, is the same at every size. The request hits
// at size c exactly when each of its blocks has a distance in [1, c]:
// its blocks are distinct, so none was loaded by an earlier miss in
// the same request, and a hit evicts nothing, so no resident block is
// lost before its own access.
type ComputeNodeSim struct {
	readOnly   map[uint64]bool
	blockBytes int64
	buffers    []int
	depth      int // the largest size, which each stack tracks
	nodes      map[uint64]computeNode
	jobIndex   map[uint32]int
	jobs       []jobCounts // in first-appearance order
	blocks     []int64     // the current request's blocks
}

// jobCounts is one job's requests and, per size, its hits.
type jobCounts struct {
	job      uint32
	accesses int64
	hits     []int64 // per size
}

// computeNode is one compute node's cache in one job.
type computeNode struct {
	stack *cache.Stack
	job   int // index in jobs
}

// NewComputeNodeSim returns an empty Figure 8 simulation whose caches
// hold the files of readOnly, at every size in buffers (at least one,
// each positive).
func NewComputeNodeSim(readOnly map[uint64]bool, blockBytes int64, buffers []int) *ComputeNodeSim {
	if blockBytes <= 0 {
		panic("cachesim: block size must be positive")
	}
	for _, b := range buffers {
		if b <= 0 {
			panic("cachesim: buffer count must be positive")
		}
	}
	return &ComputeNodeSim{
		readOnly:   readOnly,
		blockBytes: blockBytes,
		buffers:    buffers,
		depth:      slices.Max(buffers),
		nodes:      make(map[uint64]computeNode),
		jobIndex:   make(map[uint32]int),
	}
}

// Observe runs one event through the compute-node caches: a read of a
// read-only file is a request at its compute node, and every other
// event passes by.
func (s *ComputeNodeSim) Observe(ev *trace.Event) {
	if (ev.Type != trace.EvRead && ev.Type != trace.EvReadStrided) || !s.readOnly[ev.File] {
		return
	}
	s.blocks = eventBlocks(s.blocks[:0], ev, s.blockBytes)
	if len(s.blocks) == 0 {
		return
	}
	cn, ok := s.nodes[nodeKey(ev)]
	if !ok {
		j, seen := s.jobIndex[ev.Job]
		if !seen {
			j = len(s.jobs)
			s.jobIndex[ev.Job] = j
			s.jobs = append(s.jobs, jobCounts{job: ev.Job, hits: make([]int64, len(s.buffers))})
		}
		cn = computeNode{cache.NewStack(s.depth), j}
		s.nodes[nodeKey(ev)] = cn
	}
	// The request hits every size at least as large as its farthest
	// block; a first touch misses at every size.
	far := 1
	for _, b := range s.blocks {
		d := cn.stack.Access(cache.BlockID{File: ev.File, Block: b})
		if d == 0 {
			d = math.MaxInt
		}
		far = max(far, d)
	}
	jc := &s.jobs[cn.job]
	jc.accesses++
	for k, c := range s.buffers {
		if far <= c {
			jc.hits[k]++
		}
	}
}

// Results reports the per-job outcomes so far: out[i] at buffers[i].
func (s *ComputeNodeSim) Results() [][]JobHitRate {
	out := make([][]JobHitRate, len(s.buffers))
	for k := range out {
		out[k] = make([]JobHitRate, len(s.jobs))
		for j, jc := range s.jobs {
			out[k][j] = JobHitRate{Job: jc.job, Accesses: jc.accesses, Hits: jc.hits[k]}
		}
	}
	return out
}

// Policy selects the I/O-node cache replacement policy.
type Policy int

// Replacement policies available to the I/O-node simulation: the
// paper's Figure 9 pair (LRU, FIFO) plus the two approximations the
// scenario engine sweeps against them (Clock second-chance and
// segmented LRU).
const (
	LRU Policy = iota
	FIFO
	Clock
	SLRU
)

// policyNames indexes Policy values; the order defines both String()
// and the stable registry names used by scenario specs.
var policyNames = [...]string{"LRU", "FIFO", "Clock", "SLRU"}

// String names the policy.
func (p Policy) String() string {
	if p < 0 || int(p) >= len(policyNames) {
		return fmt.Sprintf("Policy(%d)", int(p))
	}
	return policyNames[p]
}

// AllPolicies returns every policy, in registry order.
func AllPolicies() []Policy {
	return []Policy{LRU, FIFO, Clock, SLRU}
}

// PolicyNames returns the stable registry names, in policy order.
func PolicyNames() []string {
	return append([]string(nil), policyNames[:]...)
}

// ParsePolicy resolves a registry name (case-insensitive) to its
// policy.
func ParsePolicy(name string) (Policy, error) {
	for i, n := range policyNames {
		if strings.EqualFold(name, n) {
			return Policy(i), nil
		}
	}
	return 0, fmt.Errorf("cachesim: unknown cache policy %q (known: %s)",
		name, strings.Join(policyNames[:], ", "))
}

func newCache(p Policy, buffers int) cache.Cache {
	switch p {
	case LRU:
		return cache.NewLRU(buffers)
	case FIFO:
		return cache.NewFIFO(buffers)
	case Clock:
		return cache.NewClock(buffers)
	case SLRU:
		return cache.NewSLRU(buffers)
	default:
		panic(fmt.Sprintf("cachesim: unknown policy %d", int(p)))
	}
}

// IONodeResult is one point on a Figure 9 curve.
type IONodeResult struct {
	Policy       Policy
	IONodes      int
	TotalBuffers int
	Accesses     int64
	Hits         int64
}

// Rate returns the configuration's overall hit rate.
func (r IONodeResult) Rate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Accesses)
}

// IONodeCache runs the Figure 9 simulation: the file system's blocks
// are striped round-robin over ioNodes I/O nodes at one-block
// granularity; totalBuffers 4 KB buffers are divided evenly among the
// I/O nodes; every read and write request in the trace touches its
// blocks at the responsible nodes. No compute-node cache is used.
func IONodeCache(events []trace.Event, blockBytes int64, ioNodes, totalBuffers int, policy Policy) IONodeResult {
	return IONodeSweep(events, blockBytes, ioNodes, []int{totalBuffers}, policy)[0]
}

// IONodeSweep is IONodeCache at every total in totals, in one pass of
// an IONodeSim: out[i] is the configuration with totals[i] buffers.
// With no totals there is nothing to simulate.
func IONodeSweep(events []trace.Event, blockBytes int64, ioNodes int, totals []int, policy Policy) []IONodeResult {
	if len(totals) == 0 {
		return nil
	}
	s := NewIONodeSim(blockBytes, ioNodes, totals, policy)
	observeAll(s, events)
	return s.Results()
}

// IONodeSim is the Figure 9 simulation in observe form: one policy at
// one I/O-node count, over a ladder of totals at once. Block b always
// lives at I/O node b % ioNodes, so every total sees the same per-node
// access streams.
type IONodeSim struct {
	sweep      *ioSweep
	blockBytes int64
	blocks     []int64 // the current request's blocks
}

// NewIONodeSim returns an empty Figure 9 simulation at every total in
// totals, each at least ioNodes.
func NewIONodeSim(blockBytes int64, ioNodes int, totals []int, policy Policy) *IONodeSim {
	if blockBytes <= 0 {
		panic("cachesim: block size must be positive")
	}
	return &IONodeSim{sweep: newIOSweep(ioNodes, totals, policy), blockBytes: blockBytes}
}

// Observe runs a read or write request's blocks through every
// configuration; other events pass by.
func (s *IONodeSim) Observe(ev *trace.Event) {
	if !ev.IsData() {
		return
	}
	s.blocks = eventBlocks(s.blocks[:0], ev, s.blockBytes)
	s.sweep.touch(ev.File, s.blocks)
}

// Results reports every total so far, in the order given.
func (s *IONodeSim) Results() []IONodeResult { return s.sweep.results() }

// ioSweep holds every configuration of one I/O-node sweep: the caller
// hands it each request's blocks once, and it counts the hits of every
// total.
//
// An LRU sweep over more than one size keeps one stack per I/O node,
// as deep as the largest per-node cache, and a histogram of distances,
// sized by the largest distance seen rather than by the capacity
// asked. Every other sweep keeps one cache per (distinct total, I/O
// node): a stack costs more per access than an LRU cache, so it pays
// only when it stands in for several. The caches' accesses are
// buffered and replayed through one configuration at a time, so each
// configuration's caches stay hot in the processor cache while it runs
// its share of a batch.
type ioSweep struct {
	policy   Policy
	ioNodes  int64
	totals   []int // as requested
	accesses int64

	stacks []*cache.Stack // LRU over several sizes: per I/O node
	hist   []int64        // LRU over several sizes: accesses per distance

	sizes   []int         // distinct totals, ascending
	caches  []cache.Cache // caches[k*ioNodes+node] holds sizes[k]
	hits    []int64       // per distinct total
	pending []access      // accesses not yet replayed
}

// access is one buffered block access and the I/O node it goes to.
type access struct {
	id   cache.BlockID
	node int
}

// sweepBatch is how many accesses a sweep of caches buffers before it
// replays them through each configuration: 96 KiB, which stay in the
// processor cache while every configuration reads them.
const sweepBatch = 4096

func newIOSweep(ioNodes int, totals []int, policy Policy) *ioSweep {
	for _, t := range totals {
		if ioNodes <= 0 || t < ioNodes {
			panic(fmt.Sprintf("cachesim: bad I/O cache config: %d nodes, %d buffers", ioNodes, t))
		}
	}
	s := &ioSweep{policy: policy, ioNodes: int64(ioNodes), totals: totals}
	s.sizes = slices.Clone(totals)
	slices.Sort(s.sizes)
	s.sizes = slices.Compact(s.sizes)
	if policy == LRU && len(s.sizes) > 1 {
		s.stacks = make([]*cache.Stack, ioNodes)
		for i := range s.stacks {
			s.stacks[i] = cache.NewStack(s.sizes[len(s.sizes)-1] / ioNodes)
		}
		return s
	}
	s.hits = make([]int64, len(s.sizes))
	if len(s.sizes) > 1 {
		// One configuration gains nothing from batching: its buffer
		// grows only to the largest request and replays when full.
		s.pending = make([]access, 0, sweepBatch)
	}
	s.caches = make([]cache.Cache, 0, len(s.sizes)*ioNodes)
	for _, t := range s.sizes {
		for range ioNodes {
			s.caches = append(s.caches, newCache(policy, t/ioNodes))
		}
	}
	return s
}

// touch runs one request's blocks through every configuration.
func (s *ioSweep) touch(file uint64, blocks []int64) {
	s.accesses += int64(len(blocks))
	if s.stacks == nil {
		if len(s.pending)+len(blocks) > cap(s.pending) {
			s.replay()
		}
		for _, b := range blocks {
			s.pending = append(s.pending, access{cache.BlockID{File: file, Block: b}, int(b % s.ioNodes)})
		}
		return
	}
	for _, b := range blocks {
		d := s.stacks[b%s.ioNodes].Access(cache.BlockID{File: file, Block: b})
		for d >= len(s.hist) {
			s.hist = append(s.hist, 0)
		}
		s.hist[d]++
	}
}

// replay runs the pending accesses through each configuration's caches.
func (s *ioSweep) replay() {
	n := int(s.ioNodes)
	for k := range s.hits {
		caches := s.caches[k*n : (k+1)*n]
		var hits int64
		for _, a := range s.pending {
			if caches[a.node].Access(a.id) {
				hits++
			}
		}
		s.hits[k] += hits
	}
	s.pending = s.pending[:0]
}

// results reports every requested total, in request order.
func (s *ioSweep) results() []IONodeResult {
	s.replay()
	var cum []int64 // LRU: cum[d] = accesses at distance 1..d
	if s.stacks != nil {
		cum = make([]int64, max(len(s.hist), 1))
		for d := 1; d < len(s.hist); d++ {
			cum[d] = cum[d-1] + s.hist[d]
		}
	}
	out := make([]IONodeResult, len(s.totals))
	for i, t := range s.totals {
		r := IONodeResult{Policy: s.policy, IONodes: int(s.ioNodes), TotalBuffers: t, Accesses: s.accesses}
		if cum != nil {
			r.Hits = cum[min(t/int(s.ioNodes), len(cum)-1)]
		} else {
			k, _ := slices.BinarySearch(s.sizes, t)
			r.Hits = s.hits[k]
		}
		out[i] = r
	}
	return out
}

// CombinedResult reports the Section 4.8 combined experiment.
type CombinedResult struct {
	IONodeAlone    IONodeResult // I/O-node caches only
	IONodeFiltered IONodeResult // with 1-buffer compute-node caches in front
	ComputeHits    int64        // requests absorbed by the compute-node buffers
}

// Combined runs the paper's final experiment: one 4 KB buffer per
// compute node (read-only files, LRU) in front of a cache at each of
// ioNodes I/O nodes with buffersPerIONode buffers. It returns the
// I/O-node hit rate with and without the compute-node layer; the paper
// measured only a ~3% drop, evidence that I/O-node hits come mostly
// from *interprocess* locality that no per-node cache can capture.
func Combined(events []trace.Event, blockBytes int64, ioNodes, buffersPerIONode int) CombinedResult {
	return CombinedPolicy(events, blockBytes, ioNodes, buffersPerIONode, LRU)
}

// CombinedPolicy is Combined with a selectable I/O-node replacement
// policy (the compute-node layer stays a single LRU buffer, the
// paper's configuration), in one pass of a CombinedSim.
func CombinedPolicy(events []trace.Event, blockBytes int64, ioNodes, buffersPerIONode int, policy Policy) CombinedResult {
	s := NewCombinedSim(ReadOnlyFiles(events), blockBytes, ioNodes, buffersPerIONode, policy)
	observeAll(s, events)
	return s.Result()
}

// CombinedSim is the combined experiment in observe form. Each request
// is split into blocks once for both of its I/O-node sweeps: the one
// with no compute-node layer and the one behind it.
type CombinedSim struct {
	readOnly    map[uint64]bool
	blockBytes  int64
	front       map[uint64]cache.BlockID // per compute node, its one buffered block
	alone       *ioSweep                 // the I/O-node caches only
	filtered    *ioSweep                 // the I/O-node caches behind the compute nodes'
	computeHits int64
	blocks      []int64 // the current request's blocks
}

// NewCombinedSim returns an empty combined experiment whose
// compute-node buffers hold the files of readOnly.
func NewCombinedSim(readOnly map[uint64]bool, blockBytes int64, ioNodes, buffersPerIONode int, policy Policy) *CombinedSim {
	if blockBytes <= 0 {
		panic("cachesim: block size must be positive")
	}
	totals := []int{ioNodes * buffersPerIONode}
	return &CombinedSim{
		readOnly:   readOnly,
		blockBytes: blockBytes,
		// A one-buffer LRU holds the block its compute node touched last.
		front:    make(map[uint64]cache.BlockID),
		alone:    newIOSweep(ioNodes, totals, policy),
		filtered: newIOSweep(ioNodes, totals, policy),
	}
}

// Observe runs a read or write request through both configurations;
// other events pass by.
func (s *CombinedSim) Observe(ev *trace.Event) {
	if !ev.IsData() {
		return
	}
	s.blocks = eventBlocks(s.blocks[:0], ev, s.blockBytes)
	if len(s.blocks) == 0 {
		return
	}
	s.alone.touch(ev.File, s.blocks)
	// The compute-node layer can fully absorb a read of read-only data
	// if all its blocks are buffered locally. Touching a request's
	// distinct blocks in turn leaves the last one buffered, and only a
	// one-block request can find its whole span already there.
	if (ev.Type == trace.EvRead || ev.Type == trace.EvReadStrided) && s.readOnly[ev.File] {
		buffered, ok := s.front[nodeKey(ev)]
		last := cache.BlockID{File: ev.File, Block: s.blocks[len(s.blocks)-1]}
		s.front[nodeKey(ev)] = last
		if ok && len(s.blocks) == 1 && buffered == last {
			s.computeHits++
			return // never reaches the I/O nodes
		}
	}
	s.filtered.touch(ev.File, s.blocks)
}

// Result reports the experiment so far.
func (s *CombinedSim) Result() CombinedResult {
	return CombinedResult{
		IONodeAlone:    s.alone.results()[0],
		IONodeFiltered: s.filtered.results()[0],
		ComputeHits:    s.computeHits,
	}
}
