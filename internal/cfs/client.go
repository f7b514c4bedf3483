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

	// Transfer scratch state, reusable because a client's calls are
	// serialized on its node's process (transfer blocks until the last
	// response arrives). Indexed by I/O-node id; sized at first use.
	dispatches []ioDispatch
	wg         sim.WaitGroup

	// handles tracks every handle this client opened, so Release can
	// return them to the arena pool when the node program ends. Only
	// maintained when the file system has an arena.
	handles []*Handle
}

// NewClient returns the CFS client for a (job, node) pair. The tracer
// may be NopTracer{} to model an uninstrumented program. With an
// arena on the file system, released clients are reused, dispatch
// tables and all.
func NewClient(fs *FileSystem, job uint32, node int, tracer Tracer) *Client {
	if tracer == nil {
		tracer = NopTracer{}
	}
	if fs.arena != nil {
		if c := fs.arena.getClient(); c != nil {
			c.reinit(fs, job, node, tracer)
			return c
		}
	}
	return &Client{fs: fs, job: job, node: node, tracer: tracer}
}

// reinit rebinds a pooled client. The dispatch table's bound closures
// stay valid -- they capture the dispatch slots, whose backing array
// is retained -- so only the per-study references need refreshing.
func (c *Client) reinit(fs *FileSystem, job uint32, node int, tracer Tracer) {
	c.fs = fs
	c.job = job
	c.node = node
	c.tracer = tracer
	if len(c.dispatches) != fs.cfg.IONodes {
		// A machine variant with a different I/O-node count; rebuild on
		// first use.
		c.dispatches = nil
		return
	}
	for i := range c.dispatches {
		d := &c.dispatches[i]
		d.io = fs.ionodes[i]
		d.batch = d.batch[:0]
		d.bytes = 0
	}
}

// Release returns the client to the file system's arena for reuse by
// a later job, or a later study on the same arena. Call it only after
// the node program has finished: the client, its handles, and any
// in-flight transfers must all be done. Without an arena it is a
// no-op.
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
	c.fs = nil
	c.tracer = nil
	for i := range c.dispatches {
		c.dispatches[i].io = nil
	}
	a.putClient(c)
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

// ioDispatch is the per-I/O-node leg of one transfer: the request
// batch, its timing, and two closures bound once at initialization so
// scheduling the request and response events never allocates.
type ioDispatch struct {
	c         *Client
	io        *IONode
	batch     []blockRequest
	bytes     int64    // payload bytes of this call that this node owns
	arrival   sim.Time // request arrival at the I/O node
	respBytes int
	sendFn    func() // runs at arrival: serve the batch, schedule response
	doneFn    func() // runs when the response reaches the compute node
}

// send runs at the I/O node when the request message arrives.
func (d *ioDispatch) send() {
	fs := d.c.fs
	done := d.io.serve(d.arrival, d.batch)
	fs.k.At(done+fs.tp.FromIONode(d.io.id, d.c.node, d.respBytes), d.doneFn)
}

// finish runs at the compute node when the response arrives.
func (d *ioDispatch) finish() { d.c.wg.Done() }

// scratch returns the client's per-I/O-node dispatch table, building
// it on first use (the node count is fixed at mount time).
func (c *Client) scratch() []ioDispatch {
	if c.dispatches == nil {
		nio := c.fs.cfg.IONodes
		c.dispatches = make([]ioDispatch, nio)
		// One shared backing array seeds every node's batch (requests
		// are overwhelmingly small, so most batches hold one or two
		// blocks); a batch that outgrows its window reallocates
		// independently thanks to the capacity-limited slicing.
		const seedCap = 4
		backing := make([]blockRequest, nio*seedCap)
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

	// Group blocks by owning I/O node into the client's reusable
	// dispatch table. Blocks are visited in increasing order and each
	// node's batch is appended in that order, so batches come out in
	// deterministic (node id, file block) order by construction — no
	// maps, no sort. Block b lives on node b % nio, so a running stripe
	// index replaces the per-block modulo.
	ds := h.c.scratch()
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
		if len(d.batch) == 0 {
			involved++
		}
		d.bytes += e - s
		req := blockRequest{
			file: h.f.id, fileBlock: b, diskBlock: db, isWrite: isWrite,
			nextFileBlock: -1, nextDiskBlock: -1,
		}
		if !isWrite && fs.cfg.IONode.Prefetch {
			// The next block on the same I/O node's stripe.
			nb := b + nio
			if ndb, ok := h.f.blocks.get(nb); ok {
				req.nextFileBlock, req.nextDiskBlock = nb, ndb
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
	striped := [2][]ioDispatch{ds[:lo+k-hi], ds[lo:hi]}

	wg := &h.c.wg
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
