package cfs

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file keeps the transfer path as it was before calls borrowed a
// pooled transfer record: every client owned a per-I/O-node dispatch
// table of 56-byte block requests, and every leg scheduled its own
// completion event. The differential tests in transfer_test.go run
// both paths on the same scripts. The code is the old code with its
// types renamed; refClient carries the fields Client used to have. It
// shares the live block tables and allocators, whose 32-bit disk
// blocks it widens into its 64-bit requests.

// refClient is a Client with its own dispatch table and WaitGroup.
type refClient struct {
	*Client
	dispatches []refDispatch
	wg         sim.WaitGroup
}

// refBlockRequest is one block-granularity operation at this I/O node.
type refBlockRequest struct {
	file      uint64
	fileBlock int64 // block index within the file
	diskBlock int64 // physical block, -1 for unallocated reads (zero fill)
	isWrite   bool
	// Readahead candidate: the file's next block on this node's
	// stripe, or -1. Filled by the client only when prefetching is on.
	nextFileBlock int64
	nextDiskBlock int64
}

// refServe processes a batch of block requests arriving at arrivalTime
// and returns the time the response leaves the node. The batch is the
// set of blocks one client operation needs from this node; CFS sent
// one message per I/O node per operation.
func (n *IONode) refServe(arrival sim.Time, batch []refBlockRequest) sim.Time {
	start := arrival
	if n.busyUntil > start {
		start = n.busyUntil // queue behind earlier requests
	}
	if n.fault != nil {
		start = n.fault.Admit(start, len(batch))
	}
	t := start + n.overheadPerRequest
	var readahead sim.Time
	for _, r := range batch {
		n.requests++
		id := cache.BlockID{File: r.file, Block: r.fileBlock}
		if r.isWrite {
			// Write-through: the block enters the cache and is
			// written to disk.
			n.cache.Access(id)
			t += n.disk.ServiceTime(r.diskBlock, 1, true)
			continue
		}
		if r.diskBlock < 0 {
			// Read of a never-written block: zero fill, memory speed.
			t += n.cacheHitTime
			continue
		}
		if n.cache.Access(id) {
			n.cacheHits++
			t += n.cacheHitTime
			continue
		}
		t += n.disk.ServiceTime(r.diskBlock, 1, false)
		if n.prefetch && r.nextDiskBlock >= 0 {
			next := cache.BlockID{File: r.file, Block: r.nextFileBlock}
			if !n.cache.Contains(next) {
				n.cache.Access(next)
				// Readahead runs after the response leaves: it keeps
				// the disk busy but is off the request's critical
				// path, which is where its benefit comes from.
				readahead += n.disk.ServiceTime(r.nextDiskBlock, 1, false)
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
	n.waitTotal += start - arrival
	n.serviceTotal += (t - start) + readahead
	return t
}

// refDispatch is the per-I/O-node leg of one transfer: the request
// batch, its timing, and two closures bound once at initialization so
// scheduling the request and response events never allocates.
type refDispatch struct {
	c         *refClient
	io        *IONode
	batch     []refBlockRequest
	bytes     int64    // payload bytes of this call that this node owns
	arrival   sim.Time // request arrival at the I/O node
	respBytes int
	sendFn    func() // runs at arrival: serve the batch, schedule response
	doneFn    func() // runs when the response reaches the compute node
}

// send runs at the I/O node when the request message arrives.
func (d *refDispatch) send() {
	fs := d.c.fs
	done := d.io.refServe(d.arrival, d.batch)
	fs.k.At(done+fs.tp.FromIONode(d.io.id, d.c.node, d.respBytes), d.doneFn)
}

// finish runs at the compute node when the response arrives.
func (d *refDispatch) finish() { d.c.wg.Done() }

// scratch returns the client's per-I/O-node dispatch table, building
// it on first use (the node count is fixed at mount time).
func (c *refClient) scratch() []refDispatch {
	if c.dispatches == nil {
		nio := c.fs.cfg.IONodes
		c.dispatches = make([]refDispatch, nio)
		// One shared backing array seeds every node's batch (requests
		// are overwhelmingly small, so most batches hold one or two
		// blocks); a batch that outgrows its window reallocates
		// independently thanks to the capacity-limited slicing.
		const seedCap = 4
		backing := make([]refBlockRequest, nio*seedCap)
		for i := range c.dispatches {
			d := &c.dispatches[i]
			d.c = c
			d.io = c.fs.ionodes[i]
			d.batch = backing[i*seedCap : i*seedCap : (i+1)*seedCap]
			d.sendFn = d.send
			d.doneFn = d.finish
		}
	}
	return c.dispatches
}

// transfer moves [off, off+n) between the compute node and the I/O
// nodes: the byte range is split into 4 KB file blocks, blocks are
// grouped by owning I/O node (round-robin striping), one request
// message goes to each involved I/O node, and the caller blocks until
// the last response arrives.
func (rc *refClient) transfer(h *Handle, p *sim.Proc, off, n int64, isWrite bool) {
	fs := h.c.fs
	bs := int64(fs.cfg.BlockBytes)
	nio := int64(fs.cfg.IONodes)
	first := off / bs
	last := (off + n - 1) / bs

	// Group blocks by owning I/O node into the client's reusable
	// dispatch table. Blocks are visited in increasing order and each
	// node's batch is appended in that order, so batches come out in
	// deterministic (node id, file block) order by construction — no
	// maps, no sort. Block b lives on node b % nio, so a running stripe
	// index replaces the per-block modulo.
	ds := rc.scratch()
	involved := 0
	lo := int(first % nio)
	id := lo
	for b := first; b <= last; b++ {
		d := &ds[id]
		if id++; id == len(ds) {
			id = 0
		}
		db, allocated := h.f.blocks.get(b)
		if isWrite && !allocated {
			newBlock, err := d.io.allocBlock()
			if err != nil {
				// Volume exhaustion: model the write as failing to
				// reach disk but still costing the request. The
				// 7.6 GB study volume never fills in practice.
				continue
			}
			h.f.blocks.set(b, newBlock, fs.arena)
			db = newBlock
			allocated = true
		}
		if !allocated {
			db = -1
		}
		// Bytes of this request that land in block b.
		bStart, bEnd := b*bs, (b+1)*bs
		s, e := max64(off, bStart), min64(off+n, bEnd)
		if len(d.batch) == 0 {
			involved++
		}
		d.bytes += e - s
		req := refBlockRequest{
			file: h.f.id, fileBlock: b, diskBlock: int64(db), isWrite: isWrite,
			nextFileBlock: -1, nextDiskBlock: -1,
		}
		if !isWrite && fs.cfg.IONode.Prefetch {
			// The next block on the same I/O node's stripe.
			nb := b + nio
			if ndb, ok := h.f.blocks.get(nb); ok {
				req.nextFileBlock, req.nextDiskBlock = nb, int64(ndb)
			}
		}
		d.batch = append(d.batch, req)
	}
	if involved == 0 {
		return
	}

	// The min(blocks, nio) striped nodes are [lo, hi) and, if the
	// stripe wraps, [0, wrap). Visiting them in ascending id order
	// schedules the sends in the order a scan of every node would.
	k := int(min(last-first+1, nio))
	hi := min(lo+k, len(ds))
	striped := [2][]refDispatch{ds[:lo+k-hi], ds[lo:hi]}

	wg := &rc.wg
	wg.Add(involved)
	now := p.Now()
	for _, part := range striped {
		for i := range part {
			d := &part[i]
			if len(d.batch) == 0 {
				continue
			}
			reqBytes := reqHeaderBytes
			if isWrite {
				reqBytes += int(d.bytes)
			}
			d.respBytes = reqHeaderBytes
			if !isWrite {
				d.respBytes += int(d.bytes)
			}
			d.arrival = now + fs.tp.ToIONode(h.c.node, d.io.id, reqBytes)
			fs.k.At(d.arrival, d.sendFn)
		}
	}
	wg.Wait(p)

	// All batches were consumed before Wait returned (serve runs inside
	// the request event); reset the striped slots for the next call,
	// keeping the backing arrays.
	for _, part := range striped {
		for i := range part {
			part[i].batch = part[i].batch[:0]
			part[i].bytes = 0
		}
	}
}

// transferStrided moves the whole pattern in one round: the blocks of
// every record are gathered, grouped by I/O node, and each involved
// I/O node receives a single request message for its whole share.
func (rc *refClient) transferStrided(h *Handle, p *sim.Proc, off, recBytes, stride int64, count int, isWrite bool) {
	fs := h.c.fs
	bs := int64(fs.cfg.BlockBytes)

	// Gather the distinct blocks the pattern touches, in order.
	seen := make(map[int64]bool)
	var blocks []int64
	var payload int64
	for i := 0; i < count; i++ {
		recOff := off + int64(i)*stride
		recEnd := recOff + recBytes
		if !isWrite {
			if recOff >= h.f.size {
				break
			}
			if recEnd > h.f.size {
				recEnd = h.f.size
			}
		}
		payload += recEnd - recOff
		for b := recOff / bs; b <= (recEnd-1)/bs; b++ {
			if !seen[b] {
				seen[b] = true
				blocks = append(blocks, b)
			}
		}
	}
	if len(blocks) == 0 {
		return
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })

	// Group by I/O node into the client's reusable dispatch table (see
	// transfer): blocks are already sorted, so batches come out in
	// deterministic order without maps or a second sort.
	ds := rc.scratch()
	involved := 0
	for _, b := range blocks {
		d := &ds[b%int64(fs.cfg.IONodes)]
		db, allocated := h.f.blocks.get(b)
		if isWrite && !allocated {
			newBlock, err := d.io.allocBlock()
			if err != nil {
				continue
			}
			h.f.blocks.set(b, newBlock, fs.arena)
			db = newBlock
			allocated = true
		}
		if !allocated {
			db = -1
		}
		if len(d.batch) == 0 {
			involved++
		}
		d.batch = append(d.batch, refBlockRequest{
			file: h.f.id, fileBlock: b, diskBlock: int64(db), isWrite: isWrite,
			nextFileBlock: -1, nextDiskBlock: -1,
		})
	}
	if involved == 0 {
		return
	}

	perNodePayload := payload / int64(involved) // even split approximation
	wg := &rc.wg
	wg.Add(involved)
	now := p.Now()
	for id := range ds {
		d := &ds[id]
		if len(d.batch) == 0 {
			continue
		}
		reqBytes := reqHeaderBytes + 16 // pattern descriptor
		if isWrite {
			reqBytes += int(perNodePayload)
		}
		d.respBytes = reqHeaderBytes
		if !isWrite {
			d.respBytes += int(perNodePayload)
		}
		d.arrival = now + fs.tp.ToIONode(h.c.node, id, reqBytes)
		fs.k.At(d.arrival, d.sendFn)
	}
	wg.Wait(p)

	for id := range ds {
		ds[id].batch = ds[id].batch[:0]
		ds[id].bytes = 0
	}
}

// The calls below are Handle's data calls with the transfer swapped
// for the reference one; validation and tracing are the handle's own.
// refClient implements dataPath with them.

func (rc *refClient) read(h *Handle, p *sim.Proc, size int64) (int64, error) {
	off, err := h.claimRange(p, size)
	if err != nil {
		return 0, err
	}
	return rc.readRange(h, p, off, size)
}

func (rc *refClient) write(h *Handle, p *sim.Proc, size int64) (int64, error) {
	off, err := h.claimRange(p, size)
	if err != nil {
		return 0, err
	}
	return rc.writeRange(h, p, off, size)
}

func (rc *refClient) readAt(h *Handle, p *sim.Proc, off, size int64) (int64, error) {
	if err := positioned(h, off, size); err != nil {
		return 0, err
	}
	return rc.readRange(h, p, off, size)
}

func (rc *refClient) writeAt(h *Handle, p *sim.Proc, off, size int64) (int64, error) {
	if err := positioned(h, off, size); err != nil {
		return 0, err
	}
	return rc.writeRange(h, p, off, size)
}

// positioned mirrors ReadAt and WriteAt's checks and pointer update.
func positioned(h *Handle, off, size int64) error {
	if h.closed {
		return ErrClosed
	}
	if h.mode != Mode0 {
		return ErrBadMode
	}
	if off < 0 || size < 0 {
		return ErrBadRequest
	}
	h.pointer = off + size
	return nil
}

func (rc *refClient) readRange(h *Handle, p *sim.Proc, off, size int64) (int64, error) {
	if h.flags&ORdOnly == 0 {
		return 0, ErrBadAccess
	}
	if h.f.deleted {
		return 0, ErrDeleted
	}
	n := size
	if off >= h.f.size {
		n = 0
	} else if off+n > h.f.size {
		n = h.f.size - off
	}
	h.c.tracer.Record(trace.Event{
		Type: trace.EvRead, Job: h.c.job, File: h.f.id,
		Offset: off, Size: n, Mode: uint8(h.mode),
	})
	if n == 0 {
		return 0, nil
	}
	rc.transfer(h, p, off, n, false)
	return n, nil
}

func (rc *refClient) writeRange(h *Handle, p *sim.Proc, off, size int64) (int64, error) {
	if h.flags&OWrOnly == 0 {
		return 0, ErrBadAccess
	}
	if h.f.deleted {
		return 0, ErrDeleted
	}
	h.c.tracer.Record(trace.Event{
		Type: trace.EvWrite, Job: h.c.job, File: h.f.id,
		Offset: off, Size: size, Mode: uint8(h.mode),
	})
	if size == 0 {
		return 0, nil
	}
	if end := off + size; end > h.f.size {
		h.f.size = end
	}
	rc.transfer(h, p, off, size, true)
	return size, nil
}

func (rc *refClient) readStrided(h *Handle, p *sim.Proc, off, recBytes, stride int64, count int) (int64, error) {
	if err := h.checkStrided(off, recBytes, stride, count); err != nil {
		return 0, err
	}
	if h.flags&ORdOnly == 0 {
		return 0, ErrBadAccess
	}
	if h.f.deleted {
		return 0, ErrDeleted
	}
	var n int64
	kept := 0
	for i := 0; i < count; i++ {
		recOff := off + int64(i)*stride
		if recOff >= h.f.size {
			break
		}
		rec := recBytes
		if recOff+rec > h.f.size {
			rec = h.f.size - recOff
		}
		n += rec
		kept++
	}
	h.c.tracer.Record(trace.Event{
		Type: trace.EvReadStrided, Job: h.c.job, File: h.f.id,
		Offset: off, Size: recBytes, Stride: stride, Count: uint32(kept),
		Mode: uint8(h.mode),
	})
	if kept == 0 {
		return 0, nil
	}
	h.pointer = off + int64(kept-1)*stride + recBytes
	rc.transferStrided(h, p, off, recBytes, stride, kept, false)
	return n, nil
}

func (rc *refClient) writeStrided(h *Handle, p *sim.Proc, off, recBytes, stride int64, count int) (int64, error) {
	if err := h.checkStrided(off, recBytes, stride, count); err != nil {
		return 0, err
	}
	if h.flags&OWrOnly == 0 {
		return 0, ErrBadAccess
	}
	if h.f.deleted {
		return 0, ErrDeleted
	}
	h.c.tracer.Record(trace.Event{
		Type: trace.EvWriteStrided, Job: h.c.job, File: h.f.id,
		Offset: off, Size: recBytes, Stride: stride, Count: uint32(count),
		Mode: uint8(h.mode),
	})
	end := off + int64(count-1)*stride + recBytes
	if end > h.f.size {
		h.f.size = end
	}
	h.pointer = end
	rc.transferStrided(h, p, off, recBytes, stride, count, true)
	return recBytes * int64(count), nil
}
