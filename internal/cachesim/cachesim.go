// Package cachesim implements the paper's trace-driven cache
// simulations (Section 4.8): a compute-node cache over read-only files
// (Figure 8), an I/O-node cache swept over size, replacement policy,
// and I/O-node count (Figure 9), and the combined configuration that
// showed compute-node caches remove only ~3% of the I/O-node cache's
// hits (because most of those hits come from interprocess locality).
package cachesim

import (
	"fmt"
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

// ReadOnlyFiles scans a trace and returns the set of files that were
// read but never written, the population the paper's compute-node
// simulation restricts itself to (write caching would need a
// consistency protocol).
func ReadOnlyFiles(events []trace.Event) map[uint64]bool {
	read := make(map[uint64]bool)
	written := make(map[uint64]bool)
	for i := range events {
		switch events[i].Type {
		case trace.EvRead, trace.EvReadStrided:
			read[events[i].File] = true
		case trace.EvWrite, trace.EvWriteStrided:
			written[events[i].File] = true
		}
	}
	ro := make(map[uint64]bool)
	for f := range read {
		if !written[f] {
			ro[f] = true
		}
	}
	return ro
}

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
// reported per job, over jobs that read read-only files.
func ComputeNodeCache(events []trace.Event, blockBytes int64, buffers int) []JobHitRate {
	if blockBytes <= 0 {
		panic("cachesim: block size must be positive")
	}
	if buffers <= 0 {
		panic("cachesim: buffer count must be positive")
	}
	ro := ReadOnlyFiles(events)

	type nodeKey struct {
		job  uint32
		node uint16
	}
	caches := make(map[nodeKey]*cache.LRU)
	perJob := make(map[uint32]*JobHitRate)
	var jobOrder []uint32
	var blocks []int64

	for i := range events {
		ev := &events[i]
		if (ev.Type != trace.EvRead && ev.Type != trace.EvReadStrided) || !ro[ev.File] {
			continue
		}
		blocks = eventBlocks(blocks[:0], ev, blockBytes)
		if len(blocks) == 0 {
			continue
		}
		key := nodeKey{ev.Job, ev.Node}
		c := caches[key]
		if c == nil {
			c = cache.NewLRU(buffers)
			caches[key] = c
		}
		jh := perJob[ev.Job]
		if jh == nil {
			jh = &JobHitRate{Job: ev.Job}
			perJob[ev.Job] = jh
			jobOrder = append(jobOrder, ev.Job)
		}
		// Touch (and on miss, load) the request's blocks. It is a hit
		// exactly when every block was resident beforehand: the blocks
		// are distinct, so none was loaded by an earlier miss in this
		// request, and a hit evicts nothing, so no resident block is
		// lost before its own access.
		hit := true
		for _, b := range blocks {
			hit = c.Access(cache.BlockID{File: ev.File, Block: b}) && hit
		}
		jh.Accesses++
		if hit {
			jh.Hits++
		}
	}
	out := make([]JobHitRate, 0, len(jobOrder))
	for _, job := range jobOrder {
		out = append(out, *perJob[job])
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
	if ioNodes <= 0 || totalBuffers < ioNodes {
		panic(fmt.Sprintf("cachesim: bad I/O cache config: %d nodes, %d buffers", ioNodes, totalBuffers))
	}
	caches := make([]cache.Cache, ioNodes)
	per := totalBuffers / ioNodes
	for i := range caches {
		caches[i] = newCache(policy, per)
	}
	res := IONodeResult{Policy: policy, IONodes: ioNodes, TotalBuffers: totalBuffers}
	var blocks []int64
	for i := range events {
		ev := &events[i]
		if !ev.IsData() {
			continue
		}
		blocks = eventBlocks(blocks[:0], ev, blockBytes)
		for _, b := range blocks {
			c := caches[int(b%int64(ioNodes))]
			res.Accesses++
			if c.Access(cache.BlockID{File: ev.File, Block: b}) {
				res.Hits++
			}
		}
	}
	return res
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
// paper's configuration).
func CombinedPolicy(events []trace.Event, blockBytes int64, ioNodes, buffersPerIONode int, policy Policy) CombinedResult {
	total := ioNodes * buffersPerIONode
	res := CombinedResult{
		IONodeAlone: IONodeCache(events, blockBytes, ioNodes, total, policy),
	}

	ro := ReadOnlyFiles(events)
	type nodeKey struct {
		job  uint32
		node uint16
	}
	frontCaches := make(map[nodeKey]*cache.LRU)
	ioCaches := make([]cache.Cache, ioNodes)
	for i := range ioCaches {
		ioCaches[i] = newCache(policy, buffersPerIONode)
	}
	filtered := IONodeResult{Policy: policy, IONodes: ioNodes, TotalBuffers: total}
	var blocks []int64

	for i := range events {
		ev := &events[i]
		if !ev.IsData() {
			continue
		}
		blocks = eventBlocks(blocks[:0], ev, blockBytes)
		if len(blocks) == 0 {
			continue
		}
		// The compute-node layer can fully absorb a read of read-only
		// data if all its blocks are buffered locally.
		if (ev.Type == trace.EvRead || ev.Type == trace.EvReadStrided) && ro[ev.File] {
			key := nodeKey{ev.Job, ev.Node}
			c := frontCaches[key]
			if c == nil {
				c = cache.NewLRU(1)
				frontCaches[key] = c
			}
			// One Access per block decides the hit, as in
			// ComputeNodeCache.
			hit := true
			for _, b := range blocks {
				hit = c.Access(cache.BlockID{File: ev.File, Block: b}) && hit
			}
			if hit {
				res.ComputeHits++
				continue // never reaches the I/O nodes
			}
		}
		for _, b := range blocks {
			c := ioCaches[int(b%int64(ioNodes))]
			filtered.Accesses++
			if c.Access(cache.BlockID{File: ev.File, Block: b}) {
				filtered.Hits++
			}
		}
	}
	res.IONodeFiltered = filtered
	return res
}
