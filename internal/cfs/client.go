package cfs

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// reqHeaderBytes approximates the size of a CFS request message
// exclusive of data payload.
const reqHeaderBytes = 64

// Client is the CFS library as linked into one process (one compute
// node) of one job. Every call is traced through the client's Tracer,
// mirroring the paper's instrumented library.
type Client struct {
	fs     *FileSystem
	job    uint32
	node   int
	tracer Tracer

	// handles tracks every handle this client opened, so Release can
	// return them to the arena pool when the node program ends. Only
	// maintained when the file system has an arena.
	handles []*Handle
}

// NewClient returns the CFS client for a (job, node) pair. The tracer
// may be NopTracer{} to model an uninstrumented program.
func NewClient(fs *FileSystem, job uint32, node int, tracer Tracer) *Client {
	if tracer == nil {
		tracer = NopTracer{}
	}
	return &Client{fs: fs, job: job, node: node, tracer: tracer}
}

// Release returns the client's handles to the file system's arena for
// reuse by a later job, or a later study on the same arena. Call it
// only after the node program has finished: the client, its handles,
// and any in-flight transfers must all be done. Without an arena it is
// a no-op.
func (c *Client) Release() {
	a := c.fs.arena
	if a == nil {
		return
	}
	// Handles are pooled only here, never on Close: a stale reference
	// to a closed handle therefore keeps observing ErrClosed for the
	// rest of the job instead of silently aliasing a newer open.
	for i, h := range c.handles {
		a.putHandle(h)
		c.handles[i] = nil
	}
	c.handles = c.handles[:0]
}

// newHandle returns a zeroed handle bound to the client, pooled when
// the file system has an arena.
func (c *Client) newHandle() *Handle {
	if a := c.fs.arena; a != nil {
		h := a.getHandle()
		if h == nil {
			h = &Handle{}
		}
		h.c = c
		c.handles = append(c.handles, h)
		return h
	}
	return &Handle{c: c}
}

// xfer is one CFS call in flight: a leg per I/O node, the WaitGroup
// the caller blocks on, and the latest response time scheduled so far.
// A call borrows one from the file system (getXfer) and returns it once
// Wait does, so records are bounded by the peak number of calls in
// flight, whichever clients make them.
type xfer struct {
	fs     *FileSystem
	node   int // the calling compute node
	legs   []leg
	wg     sim.WaitGroup
	latest sim.Time
	doneFn func() // wg.Done, bound once
}

// leg is the part of one call that one I/O node serves: its blocks in
// increasing file-block order, and the request's timing. The file,
// direction and stripe stride are held once for all of its blocks.
type leg struct {
	x         *xfer
	io        *IONode
	file      uint64
	write     bool
	stride    int64 // I/O nodes in the stripe; a block's readahead is fileBlock+stride
	blocks    []legBlock
	bytes     int64    // payload bytes of this call that this node owns
	arrival   sim.Time // request arrival at the I/O node
	respBytes int
	sendFn    func() // l.send, bound once so scheduling the request never allocates
}

// legBlock is one block of a leg. Each block carries its own 64-bit
// file block: a strided call's blocks are not an arithmetic run, and
// a sparse file's blocks reach past 2^31.
type legBlock struct {
	fileBlock int64
	diskBlock int32 // -1 for an unallocated read (zero fill)
	nextDisk  int32 // disk block of the readahead candidate, or -1
}

// getXfer borrows a transfer record for a call from the given compute
// node, building one when the free list is empty.
func (fs *FileSystem) getXfer(node int) *xfer {
	var x *xfer
	if n := len(fs.xfers); n > 0 {
		x = fs.xfers[n-1]
		fs.xfers = fs.xfers[:n-1]
	} else {
		x = &xfer{fs: fs, legs: make([]leg, len(fs.ionodes))}
		x.doneFn = x.wg.Done
		// One shared backing array seeds every leg (calls are
		// overwhelmingly small, so most legs hold one or two blocks); a
		// leg that outgrows its window reallocates independently thanks
		// to the capacity-limited slicing.
		const seedCap = 4
		backing := make([]legBlock, len(x.legs)*seedCap)
		for i := range x.legs {
			l := &x.legs[i]
			l.x = x
			l.io = fs.ionodes[i]
			l.stride = int64(len(fs.ionodes))
			l.blocks = backing[i*seedCap : i*seedCap : (i+1)*seedCap]
			l.sendFn = l.send
		}
	}
	x.node = node
	x.latest = 0
	return x
}

// post sends leg l's request message, leaving the compute node at now.
func (x *xfer) post(l *leg, now sim.Time, file uint64, write bool, reqBytes, respBytes int) {
	l.file, l.write = file, write
	l.respBytes = respBytes
	l.arrival = now + x.fs.tp.ToIONode(x.node, l.io.id, reqBytes)
	x.fs.k.At(l.arrival, l.sendFn)
}

// send runs at the I/O node when the request message arrives: it
// serves the leg, empties it for the record's next call, and delivers
// the response. A response landing before one this call has already
// scheduled cannot be the last to arrive, so it counts down at once
// instead of scheduling an event that would wake nobody. Ties still
// schedule: of two events at one instant the later-scheduled runs
// last, and it must be the one that wakes the caller.
func (l *leg) send() {
	x := l.x
	t := l.io.serve(l)
	t += x.fs.tp.FromIONode(l.io.id, x.node, l.respBytes)
	l.blocks = l.blocks[:0]
	l.bytes = 0
	if t < x.latest {
		x.wg.Done()
		return
	}
	x.latest = t
	x.fs.k.At(t, x.doneFn)
}

// wait blocks p until every posted leg's response has arrived, then
// returns the record to the free list. The event that wakes p is the
// last the call scheduled (scheduled times never decrease), so none is
// left pending that could touch the record.
func (x *xfer) wait(p *sim.Proc) {
	x.wg.Wait(p)
	x.fs.xfers = append(x.fs.xfers, x)
}

// newGroup returns an empty open group, pooled when the file system
// has an arena.
func (c *Client) newGroup(mode IOMode) *openGroup {
	if a := c.fs.arena; a != nil {
		return a.getGroup(mode)
	}
	return &openGroup{mode: mode}
}

// Handle is an open file descriptor on one node.
type Handle struct {
	c       *Client
	f       *file
	flags   int
	mode    IOMode
	pointer int64      // private pointer (mode 0)
	group   *openGroup // shared state (modes 1-3)
	closed  bool
}

// metadataDelay models a small metadata round trip (open, close,
// delete) to I/O node 0.
func (c *Client) metadataDelay(p *sim.Proc) {
	d := c.fs.tp.ToIONode(c.node, 0, reqHeaderBytes) +
		c.fs.tp.FromIONode(0, c.node, reqHeaderBytes)
	p.Sleep(d)
}

// Open opens (or with OCreate, creates) a file in the given I/O mode.
func (c *Client) Open(p *sim.Proc, name string, flags int, mode IOMode) (*Handle, error) {
	if !mode.Valid() {
		return nil, ErrBadMode
	}
	if flags&ORdWr == 0 {
		return nil, ErrBadAccess
	}
	c.metadataDelay(p)
	f, ok := c.fs.lookup(name)
	created := false
	if !ok {
		if flags&OCreate == 0 {
			return nil, ErrNotFound
		}
		f = c.fs.create(name, c.job)
		created = true
	}
	f.opens++
	c.fs.opens++
	c.fs.modeCounts[mode]++
	h := c.newHandle()
	h.f = f
	h.flags = flags
	h.mode = mode
	if mode != Mode0 {
		g := f.groups[c.job]
		if g == nil || g.mode != mode {
			g = c.newGroup(mode)
			f.groups[c.job] = g
		}
		g.members = append(g.members, c.node)
		sort.Ints(g.members)
		h.group = g
	}
	ev := trace.Event{
		Type: trace.EvOpen, Job: c.job, File: f.id, Mode: uint8(mode),
	}
	if flags&ORdOnly != 0 {
		ev.Flags |= trace.FlagRead
	}
	if flags&OWrOnly != 0 {
		ev.Flags |= trace.FlagWrite
	}
	if created {
		ev.Flags |= trace.FlagCreate
	}
	c.tracer.Record(ev)
	return h, nil
}

// Mode returns the handle's I/O mode.
func (h *Handle) Mode() IOMode { return h.mode }

// FileID returns the global identity of the open file.
func (h *Handle) FileID() uint64 { return h.f.id }

// Size returns the file's current size.
func (h *Handle) Size() int64 { return h.f.size }

// Pointer returns the handle's current file pointer (the shared
// pointer for modes 1-3). After Close it returns the pointer as of
// the close.
func (h *Handle) Pointer() int64 {
	if h.group != nil {
		return h.group.pointer
	}
	return h.pointer
}

// Seek sets the file pointer. For shared-pointer modes it moves the
// shared pointer, as CFS did.
func (h *Handle) Seek(p *sim.Proc, off int64) error {
	if h.closed {
		return ErrClosed
	}
	if off < 0 {
		return ErrBadRequest
	}
	if h.group != nil {
		h.group.pointer = off
	} else {
		h.pointer = off
	}
	h.c.tracer.Record(trace.Event{
		Type: trace.EvSeek, Job: h.c.job, File: h.f.id, Offset: off, Mode: uint8(h.mode),
	})
	return nil
}

// Read transfers up to size bytes at the file pointer, advancing it.
// It returns the number of bytes read (short at end of file).
func (h *Handle) Read(p *sim.Proc, size int64) (int64, error) {
	off, err := h.claimRange(p, size)
	if err != nil {
		return 0, err
	}
	return h.readAt(p, off, size)
}

// ReadAt transfers up to size bytes at the given offset without using
// the file pointer (a seek+read in one call; only meaningful for
// mode 0, where each process owns its pointer).
func (h *Handle) ReadAt(p *sim.Proc, off, size int64) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	if h.mode != Mode0 {
		return 0, ErrBadMode
	}
	if off < 0 || size < 0 {
		return 0, ErrBadRequest
	}
	h.pointer = off + size
	return h.readAt(p, off, size)
}

// Write transfers size bytes at the file pointer, advancing it and
// extending the file as needed.
func (h *Handle) Write(p *sim.Proc, size int64) (int64, error) {
	off, err := h.claimRange(p, size)
	if err != nil {
		return 0, err
	}
	return h.writeAt(p, off, size)
}

// WriteAt transfers size bytes at the given offset (mode 0 only).
func (h *Handle) WriteAt(p *sim.Proc, off, size int64) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	if h.mode != Mode0 {
		return 0, ErrBadMode
	}
	if off < 0 || size < 0 {
		return 0, ErrBadRequest
	}
	h.pointer = off + size
	return h.writeAt(p, off, size)
}

// claimRange resolves the starting offset for a pointer-based access,
// enforcing the mode's coordination rules, and advances the pointer.
func (h *Handle) claimRange(p *sim.Proc, size int64) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	if size < 0 {
		return 0, ErrBadRequest
	}
	switch h.mode {
	case Mode0:
		off := h.pointer
		h.pointer += size
		return off, nil
	case Mode1:
		off := h.group.pointer
		h.group.pointer += size
		return off, nil
	case Mode2, Mode3:
		g := h.group
		if h.mode == Mode3 {
			if g.reqSize == 0 {
				g.reqSize = size
			} else if g.reqSize != size {
				return 0, ErrSizeMismatch
			}
		}
		for g.members[g.turn] != h.c.node {
			g.waiters = append(g.waiters, p)
			p.Suspend()
		}
		off := g.pointer
		g.pointer += size
		g.turn = (g.turn + 1) % len(g.members)
		g.wakeAll()
		return off, nil
	}
	return 0, ErrBadMode
}

// readAt performs the traced, timed read.
func (h *Handle) readAt(p *sim.Proc, off, size int64) (int64, error) {
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
	h.transfer(p, off, n, false)
	return n, nil
}

// writeAt performs the traced, timed write.
func (h *Handle) writeAt(p *sim.Proc, off, size int64) (int64, error) {
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
	h.transfer(p, off, size, true)
	return size, nil
}

// transfer moves [off, off+n) between the compute node and the I/O
// nodes: the byte range is split into 4 KB file blocks, blocks are
// grouped by owning I/O node (round-robin striping), one request
// message goes to each involved I/O node, and the caller blocks until
// the last response arrives.
func (h *Handle) transfer(p *sim.Proc, off, n int64, isWrite bool) {
	fs := h.c.fs
	bs := int64(fs.cfg.BlockBytes)
	nio := int64(fs.cfg.IONodes)
	first := off / bs
	last := (off + n - 1) / bs
	prefetch := !isWrite && fs.cfg.IONode.Prefetch

	// Group blocks by owning I/O node into the record's legs. Blocks
	// are visited in increasing order and each leg is appended in that
	// order, so legs come out in deterministic (node id, file block)
	// order by construction -- no maps, no sort. Block b lives on node
	// b % nio, so a running stripe index replaces the per-block modulo.
	x := fs.getXfer(h.c.node)
	legs := x.legs
	involved := 0
	lo := int(first % nio)
	id := lo
	for b := first; b <= last; b++ {
		l := &legs[id]
		if id++; id == len(legs) {
			id = 0
		}
		db, allocated := h.f.blocks.get(b)
		if isWrite && !allocated {
			newBlock, err := l.io.allocBlock()
			if err != nil {
				// Volume exhaustion: model the write as failing to
				// reach disk but still costing the request. The
				// 7.6 GB study volume never fills in practice.
				continue
			}
			h.f.blocks.set(b, newBlock)
			db = newBlock
			allocated = true
		}
		if !allocated {
			db = -1
		}
		// Bytes of this request that land in block b.
		bStart, bEnd := b*bs, (b+1)*bs
		s, e := max64(off, bStart), min64(off+n, bEnd)
		if len(l.blocks) == 0 {
			involved++
		}
		l.bytes += e - s
		next := int32(-1)
		if prefetch {
			// The next block on the same I/O node's stripe.
			if ndb, ok := h.f.blocks.get(b + nio); ok {
				next = ndb
			}
		}
		l.blocks = append(l.blocks, legBlock{fileBlock: b, diskBlock: db, nextDisk: next})
	}
	if involved == 0 {
		x.wait(p) // nothing posted: returns the record at once
		return
	}

	// The min(blocks, nio) striped nodes are [lo, hi) and, if the
	// stripe wraps, [0, wrap). Visiting them in ascending id order
	// schedules the sends in the order a scan of every node would.
	k := int(min(last-first+1, nio))
	hi := min(lo+k, len(legs))
	striped := [2][]leg{legs[:lo+k-hi], legs[lo:hi]}

	x.wg.Add(involved)
	now := p.Now()
	for _, part := range striped {
		for i := range part {
			l := &part[i]
			if len(l.blocks) == 0 {
				continue
			}
			reqBytes, respBytes := reqHeaderBytes, reqHeaderBytes
			if isWrite {
				reqBytes += int(l.bytes)
			} else {
				respBytes += int(l.bytes)
			}
			x.post(l, now, h.f.id, isWrite, reqBytes, respBytes)
		}
	}
	x.wait(p)
}

// Close releases the handle. The file's size is recorded in the trace,
// which is where the paper's "file size at close" distribution comes
// from.
func (h *Handle) Close(p *sim.Proc) error {
	if h.closed {
		return ErrClosed
	}
	h.closed = true
	h.c.metadataDelay(p)
	h.f.opens--
	if h.group != nil {
		// Detach from the group, snapshotting the shared pointer so
		// Pointer() on the closed handle answers from the moment of
		// the close rather than reading a group that may be pooled
		// and serving a later open.
		h.pointer = h.group.pointer
		for i, m := range h.group.members {
			if m == h.c.node {
				h.group.members = append(h.group.members[:i], h.group.members[i+1:]...)
				break
			}
		}
		if len(h.group.members) > 0 {
			h.group.turn %= len(h.group.members)
			h.group.wakeAll()
		} else {
			delete(h.f.groups, h.c.job)
			// No members means no waiters; the group can serve the
			// next open.
			if a := h.c.fs.arena; a != nil {
				a.putGroup(h.group)
			}
		}
		h.group = nil
	}
	h.c.tracer.Record(trace.Event{
		Type: trace.EvClose, Job: h.c.job, File: h.f.id, Size: h.f.size, Mode: uint8(h.mode),
	})
	return nil
}

// Delete unlinks a file by name. Open handles keep working against
// the unlinked file in Unix fashion only until they next touch data,
// when they observe ErrDeleted; CFS behaved similarly.
func (c *Client) Delete(p *sim.Proc, name string) error {
	c.metadataDelay(p)
	f, ok := c.fs.lookup(name)
	if !ok {
		return ErrNotFound
	}
	c.fs.removeFile(f)
	c.tracer.Record(trace.Event{
		Type: trace.EvDelete, Job: c.job, File: f.id,
	})
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
