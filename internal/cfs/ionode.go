package cfs

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/sim"
)

// IONode is one dedicated I/O node: an i386 processor with 4 MB of
// memory, a buffer cache, and a single SCSI disk. The disk is a serial
// resource; requests queue in arrival order. Service is modeled with a
// busy-until horizon rather than a process per request, which keeps
// multi-million-request simulations cheap while preserving queueing
// delay.
type IONode struct {
	id    int
	k     *sim.Kernel
	disk  *disk.Disk
	cache *cache.LRU

	busyUntil sim.Time
	nextFree  int32   // next never-allocated disk block
	freeList  []int32 // blocks returned by deleted files

	// overheadPerRequest models the i386's per-request software cost.
	overheadPerRequest sim.Time
	// cacheHitTime models a memory-speed block copy on a hit.
	cacheHitTime sim.Time

	prefetch bool

	fault NodeFault // nil on a healthy node

	requests   int64
	cacheHits  int64
	prefetches int64
	allocated  int64 // disk blocks handed out
	freed      int64 // disk blocks returned

	// Observation-only queueing statistics (they never influence
	// timing): per-batch arrival counts, accumulated queue wait
	// (service start minus arrival), and accumulated service time
	// (response departure minus service start, plus readahead the
	// disk absorbs off the critical path). The analytical twin's
	// conformance suite compares its M/G/1 predictions against these.
	batches      int64
	waitTotal    sim.Time
	serviceTotal sim.Time
}

// NodeFault is the degradation hook an I/O node consults while
// serving (see internal/faults). Admit may defer a batch's service
// start past an outage window; Scale may inflate a service duration
// that begins at the given time. A nil NodeFault means healthy.
type NodeFault interface {
	Admit(start sim.Time, requests int) sim.Time
	Scale(start, dur sim.Time) sim.Time
}

// SetFault installs a degradation hook on the node. Call it before
// the simulation starts.
func (n *IONode) SetFault(f NodeFault) { n.fault = f }

// IONodeConfig sizes an I/O node.
type IONodeConfig struct {
	Disk         disk.Config
	CacheBuffers int      // buffer cache capacity in 4 KB blocks
	Overhead     sim.Time // per-request software overhead
	CacheHitTime sim.Time // service time for a cache hit
	// Prefetch enables one-block readahead: on a read miss the node
	// also fetches the file's next block on this node's stripe, the
	// policy CFS shipped with (Pratt and French measured it helping
	// sequential workloads).
	Prefetch bool
}

// DefaultIONodeConfig returns the NAS configuration: a 760 MB disk and
// a buffer cache using most of the node's 4 MB of memory (~768
// four-KB buffers), 200 us request overhead, 100 us hit service.
func DefaultIONodeConfig() IONodeConfig {
	return IONodeConfig{
		Disk:         disk.CDC760MB(),
		CacheBuffers: 768,
		Overhead:     200 * sim.Microsecond,
		CacheHitTime: 100 * sim.Microsecond,
	}
}

// newIONode returns an I/O node with an empty disk and the given
// cache, which must be empty and hold cfg.CacheBuffers blocks. It
// panics on a disk of more than math.MaxInt32 blocks: the file system
// keeps disk-block numbers in 32 bits.
func newIONode(k *sim.Kernel, id int, cfg IONodeConfig, c *cache.LRU) *IONode {
	d := disk.New(cfg.Disk)
	if d.Blocks() > math.MaxInt32 {
		panic(fmt.Sprintf("cfs: I/O node %d: disk of %d blocks exceeds the %d a block number can address",
			id, d.Blocks(), math.MaxInt32))
	}
	return &IONode{
		id:                 id,
		k:                  k,
		disk:               d,
		cache:              c,
		overheadPerRequest: cfg.Overhead,
		cacheHitTime:       cfg.CacheHitTime,
		prefetch:           cfg.Prefetch,
	}
}

// ID returns the I/O node's index.
func (n *IONode) ID() int { return n.id }

// Requests reports the number of block requests serviced.
func (n *IONode) Requests() int64 { return n.requests }

// CacheHits reports how many of them hit the buffer cache.
func (n *IONode) CacheHits() int64 { return n.cacheHits }

// Prefetches reports how many readahead blocks the node fetched.
func (n *IONode) Prefetches() int64 { return n.prefetches }

// BlocksAllocated reports how many disk blocks the node handed out.
func (n *IONode) BlocksAllocated() int64 { return n.allocated }

// BlocksFreed reports how many disk blocks deleted files returned.
func (n *IONode) BlocksFreed() int64 { return n.freed }

// Disk exposes the node's drive for instrumentation.
func (n *IONode) Disk() *disk.Disk { return n.disk }

// QueueStats reports the node's observation-only queueing counters:
// batches served, total queue wait, and total service time.
func (n *IONode) QueueStats() (batches int64, wait, service sim.Time) {
	return n.batches, n.waitTotal, n.serviceTotal
}

// allocBlock claims a free disk block (reusing reclaimed blocks
// first), or reports exhaustion.
func (n *IONode) allocBlock() (int32, error) {
	if len(n.freeList) > 0 {
		b := n.freeList[len(n.freeList)-1]
		n.freeList = n.freeList[:len(n.freeList)-1]
		n.allocated++
		return b, nil
	}
	if int64(n.nextFree) >= n.disk.Blocks() {
		return 0, ErrNoSpace
	}
	b := n.nextFree
	n.nextFree++
	n.allocated++
	return b, nil
}

// freeBlocks reports how many blocks allocBlock can still hand out.
func (n *IONode) freeBlocks() int64 {
	return int64(len(n.freeList)) + n.disk.Blocks() - int64(n.nextFree)
}

// freeBlock returns a disk block to the allocator.
func (n *IONode) freeBlock(b int32) {
	n.freeList = append(n.freeList, b)
	n.freed++
}

// serve processes one call's leg, whose request arrived at l.arrival,
// and returns the time the response leaves the node. A leg is the set
// of blocks one client operation needs from this node; CFS sent one
// message per I/O node per operation.
func (n *IONode) serve(l *leg) sim.Time {
	start := l.arrival
	if n.busyUntil > start {
		start = n.busyUntil // queue behind earlier requests
	}
	if n.fault != nil {
		start = n.fault.Admit(start, len(l.blocks))
	}
	t := start + n.overheadPerRequest
	var readahead sim.Time
	for _, b := range l.blocks {
		n.requests++
		id := cache.BlockID{File: l.file, Block: b.fileBlock}
		if l.write {
			// Write-through: the block enters the cache and is
			// written to disk.
			n.cache.Access(id)
			t += n.disk.ServiceTime(int64(b.diskBlock), 1, true)
			continue
		}
		if b.diskBlock < 0 {
			// Read of a never-written block: zero fill, memory speed.
			t += n.cacheHitTime
			continue
		}
		if n.cache.Access(id) {
			n.cacheHits++
			t += n.cacheHitTime
			continue
		}
		t += n.disk.ServiceTime(int64(b.diskBlock), 1, false)
		if n.prefetch && b.nextDisk >= 0 {
			// The file's next block on this node's stripe.
			next := cache.BlockID{File: l.file, Block: b.fileBlock + l.stride}
			if !n.cache.Contains(next) {
				n.cache.Access(next)
				// Readahead runs after the response leaves: it keeps
				// the disk busy but is off the request's critical
				// path, which is where its benefit comes from.
				readahead += n.disk.ServiceTime(int64(b.nextDisk), 1, false)
				n.prefetches++
			}
		}
	}
	if n.fault != nil {
		// Degradation inflates the whole service (software overhead,
		// disk time, and off-critical-path readahead alike) by the
		// factor in effect when service began.
		t = start + n.fault.Scale(start, t-start)
		if readahead > 0 {
			readahead = n.fault.Scale(start, readahead)
		}
	}
	n.busyUntil = t + readahead
	n.batches++
	n.waitTotal += start - l.arrival
	n.serviceTotal += (t - start) + readahead
	return t
}

// invalidate drops a file's blocks from the cache (file deletion).
func (n *IONode) invalidate(file uint64, fileBlocks []int64) {
	for _, b := range fileBlocks {
		n.cache.Invalidate(cache.BlockID{File: file, Block: b})
	}
}
