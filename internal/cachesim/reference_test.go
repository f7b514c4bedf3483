package cachesim

// The reference implementations below are the cache experiments as
// they were before the one-pass sweeps: one cache.Cache simulation per
// configuration, and a one-buffer LRU per compute node in front of the
// combined experiment's I/O nodes. They are kept verbatim as the
// oracle the sweeps are tested against, and exported to the external
// test package, which can import the study pipeline.

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/trace"
)

// ReferenceComputeNodeCache is ComputeNodeCache as one LRU simulation
// per (job, node) pair at a single size.
func ReferenceComputeNodeCache(events []trace.Event, blockBytes int64, buffers int) []JobHitRate {
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

// referenceCache builds one cache of the given policy.
func referenceCache(p Policy, buffers int) cache.Cache {
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

// ReferenceIONodeCache is IONodeCache as one cache simulation per I/O
// node at a single size.
func ReferenceIONodeCache(events []trace.Event, blockBytes int64, ioNodes, totalBuffers int, policy Policy) IONodeResult {
	if ioNodes <= 0 || totalBuffers < ioNodes {
		panic(fmt.Sprintf("cachesim: bad I/O cache config: %d nodes, %d buffers", ioNodes, totalBuffers))
	}
	caches := make([]cache.Cache, ioNodes)
	per := totalBuffers / ioNodes
	for i := range caches {
		caches[i] = referenceCache(policy, per)
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

// ReferenceCombinedPolicy is CombinedPolicy with a cache.LRU(1) per
// compute node and one cache simulation per I/O node.
func ReferenceCombinedPolicy(events []trace.Event, blockBytes int64, ioNodes, buffersPerIONode int, policy Policy) CombinedResult {
	total := ioNodes * buffersPerIONode
	res := CombinedResult{
		IONodeAlone: ReferenceIONodeCache(events, blockBytes, ioNodes, total, policy),
	}

	ro := ReadOnlyFiles(events)
	type nodeKey struct {
		job  uint32
		node uint16
	}
	frontCaches := make(map[nodeKey]*cache.LRU)
	ioCaches := make([]cache.Cache, ioNodes)
	for i := range ioCaches {
		ioCaches[i] = referenceCache(policy, buffersPerIONode)
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
