// Streaming trace access and the postprocessing merge. The CHARISMA
// instrumentation shipped event blocks off the compute nodes precisely
// because whole traces did not fit anywhere at once; Reader honors the
// same constraint on replay. It indexes a .trc file's block headers up
// front (a few dozen bytes per block, never the payloads) and then
// iterates with bounded memory: Blocks decodes one block at a time, and
// Events runs the full postprocessing pipeline -- per-node clock-drift
// correction and chronological merging -- holding one decoded block
// per node (briefly two, when a timestamp tie straddles a block
// boundary; see mergeCursor).
//
// That merge, mergeBlocks, is the only one, and Reader is its only
// block source: Trace.Reader serves a collected trace's in-memory
// blocks, and NewReader a .trc block index. Its key is (corrected
// time, flatten index), each node's blocks taken in recording order
// are sorted by that key, and the cursor window opens every block that
// could still hold a node's minimum key, so for every trace whose
// per-node clocks are monotone -- every trace the collector produces
// -- the k-way merge equals a global stable sort by corrected time
// (reference_test.go keeps that sort as the oracle).
package trace

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// BlockInfo locates one block inside an encoded trace: its byte
// offset, the flatten index of its first event record (the global
// record ordinal in file order, which is the batch postprocessor's
// tie-break), and the block-header fields needed for clock fitting.
type BlockInfo struct {
	Offset        int64 // byte offset of the block header in the file
	StartIdx      int64 // flatten index of the block's first record
	SendLocal     int64
	RecvCollector int64
	Count         uint32
	Node          uint16
}

// Reader provides bounded-memory access to a trace's blocks: an
// encoded trace (NewReader, OpenReader, Writer.Reader) or a collected
// one (Trace.Reader). A Reader is not safe for concurrent use.
type Reader struct {
	r      io.ReaderAt
	closer io.Closer
	blocks []Block // the collected blocks, when r is nil
	header Header
	index  []BlockInfo
	events int64
}

// NewReader indexes an encoded trace of the given total size. It
// validates the framing -- magic, version, and that every block's
// declared record count fits inside the file -- and returns a
// descriptive error (never a panic) for truncated or corrupt input.
// Event payloads are validated lazily as Blocks or Events decodes
// them.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	if size < headerSize {
		return nil, fmt.Errorf("trace: file too short for a header: %d bytes", size)
	}
	var hbuf [headerSize]byte
	if _, err := r.ReadAt(hbuf[:], 0); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	rd := &Reader{r: r}
	if err := rd.header.decode(hbuf[:]); err != nil {
		return nil, err
	}
	// Scan the block headers through a chunked window rather than one
	// 22-byte pread per block: with 4 KB blocks a window this size
	// covers ~60 headers per read, so indexing a large file costs
	// tens of syscalls per megabyte, not thousands. Payloads that run
	// past the window are skipped, not read.
	win := make([]byte, 256*1024)
	off := int64(headerSize)
	for off < size {
		if size-off < blockHeaderSize {
			return nil, fmt.Errorf("trace: truncated block header at offset %d (%d trailing bytes)", off, size-off)
		}
		n := int64(len(win))
		if n > size-off {
			n = size - off
		}
		if _, err := r.ReadAt(win[:n], off); err != nil && !(err == io.EOF && off+n == size) {
			return nil, fmt.Errorf("trace: reading block headers at offset %d: %w", off, err)
		}
		winStart := off
		for off-winStart+blockHeaderSize <= n {
			bbuf := win[off-winStart:]
			info := BlockInfo{
				Offset:        off,
				StartIdx:      rd.events,
				Node:          binary.LittleEndian.Uint16(bbuf[0:]),
				Count:         binary.LittleEndian.Uint32(bbuf[2:]),
				SendLocal:     int64(binary.LittleEndian.Uint64(bbuf[6:])),
				RecvCollector: int64(binary.LittleEndian.Uint64(bbuf[14:])),
			}
			payload := int64(info.Count) * EventSize
			if payload > size-off-blockHeaderSize {
				return nil, fmt.Errorf("trace: block %d at offset %d declares %d records but only %d bytes remain",
					len(rd.index), off, info.Count, size-off-blockHeaderSize)
			}
			rd.index = append(rd.index, info)
			rd.events += int64(info.Count)
			off += blockHeaderSize + payload
			if off >= size {
				break
			}
			if size-off < blockHeaderSize {
				return nil, fmt.Errorf("trace: truncated block header at offset %d (%d trailing bytes)", off, size-off)
			}
		}
	}
	return rd, nil
}

// OpenReader opens and indexes a trace file. Close releases the file.
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %w", err)
	}
	rd, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	rd.closer = f
	return rd, nil
}

// Close releases the underlying file, when the Reader owns one.
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

// Header returns the trace header.
func (r *Reader) Header() Header { return r.header }

// EventCount returns the total number of event records in the trace.
func (r *Reader) EventCount() int64 { return r.events }

// NumBlocks returns the number of blocks in the trace.
func (r *Reader) NumBlocks() int { return len(r.index) }

// Size returns the trace's encoded size in bytes: the length of its
// .trc file, or what Trace.WriteTo writes.
func (r *Reader) Size() int64 {
	return headerSize + int64(len(r.index))*blockHeaderSize + r.events*EventSize
}

// loadBlock reads and decodes block i, reusing raw and events as
// backing storage when they are large enough. A collected trace's
// block comes back as it is.
func (r *Reader) loadBlock(i int, raw []byte, events []Event) ([]byte, []Event, error) {
	if r.r == nil {
		return raw, r.blocks[i].Events, nil
	}
	info := &r.index[i]
	need := int(info.Count) * EventSize
	if cap(raw) < need {
		raw = make([]byte, need)
	}
	raw = raw[:need]
	if need > 0 {
		if _, err := r.r.ReadAt(raw, info.Offset+blockHeaderSize); err != nil {
			return raw, events[:0], fmt.Errorf("trace: reading block %d payload: %w", i, err)
		}
	}
	if cap(events) < int(info.Count) {
		events = make([]Event, info.Count)
	}
	events = events[:info.Count]
	for j := range events {
		if err := events[j].Decode(raw[j*EventSize:]); err != nil {
			return raw, events[:0], fmt.Errorf("trace: block %d record %d: %w", i, j, err)
		}
	}
	return raw, events, nil
}

// Blocks calls fn with each block in file (arrival) order, decoding
// one block at a time. The Block's Events slice may be reused between
// calls or be the trace's own; fn must neither retain nor modify it.
func (r *Reader) Blocks(fn func(Block) error) error {
	var raw []byte
	var buf []Event
	for i := range r.index {
		var err error
		raw, buf, err = r.loadBlock(i, raw, buf)
		if err != nil {
			return err
		}
		info := &r.index[i]
		blk := Block{
			Node:          info.Node,
			SendLocal:     info.SendLocal,
			RecvCollector: info.RecvCollector,
			Events:        buf,
		}
		if err := fn(blk); err != nil {
			return err
		}
	}
	return nil
}

// blockLoader returns block i's events with their raw local
// timestamps. buf is a spare slice that an earlier call returned and
// the merge is done with; the loader may decode into it. The merge
// only reads what the loader returns.
type blockLoader func(i int, buf []Event) ([]Event, error)

// openBlock is one loaded, not-yet-exhausted block inside a node
// cursor's window.
type openBlock struct {
	events []Event // raw local timestamps, as loaded
	pos    int     // head event
	base   int64   // StartIdx of the block
}

// mergeCursor is one node's position in the merge: the node's block
// list (in recording order), a window of loaded blocks, and a copy of
// the head event carrying its corrected timestamp.
//
// The window is the subtlety that makes the merge exact rather than
// approximate. A node's blocks, taken in recording (SendLocal) order,
// partition its event stream into consecutive time ranges that can
// touch at the boundary instants: every event in block k satisfies
// fit(send[k-1]) <= time <= fit(send[k]). When the head event's
// timestamp reaches the lower bound on the unopened blocks' events,
// the *next* block may hold events at that same instant whose flatten
// index is smaller (a small residual block can overtake a full one on
// the network and land earlier in the trace), so the cursor opens it
// and takes the minimum key across the window. In the steady state
// the window is one block; at a boundary tie it is briefly two.
type mergeCursor struct {
	blocks []int32 // indices into the block index, in recording order
	next   int     // next entry of blocks to open
	window []openBlock
	free   [][]Event // spare event buffers, handed back to the loader
	fit    ClockFit
	// Corrected lower bound on the events of every unopened block.
	bound int64

	// The head event with its corrected timestamp, its flatten index
	// (head.Time and idx are the merge key), and which window entry
	// holds it.
	head Event
	idx  int64
	wi   int
}

func (c *mergeCursor) less(d *mergeCursor) bool {
	if c.head.Time != d.head.Time {
		return c.head.Time < d.head.Time
	}
	return c.idx < d.idx
}

// merger is the k-way merge over one block source.
type merger struct {
	index []BlockInfo
	load  blockLoader
}

// openNext loads the node's next block into the window (skipping
// empty blocks) and updates the unopened-blocks lower bound.
func (m *merger) openNext(c *mergeCursor) error {
	i := int(c.blocks[c.next])
	c.next++
	info := &m.index[i]
	// Blocks flushed at one local instant sort in arrival order, and
	// only the first of them recorded can hold events before that
	// instant. So the bound rises to a send stamp only once every
	// block carrying it is open; until then it stays at the previous
	// stamp.
	if c.next == len(c.blocks) || m.index[c.blocks[c.next]].SendLocal > info.SendLocal {
		c.bound = c.fit.Apply(info.SendLocal)
	}
	if info.Count == 0 {
		return nil
	}
	var buf []Event
	if n := len(c.free); n > 0 {
		buf = c.free[n-1]
		c.free = c.free[:n-1]
	}
	events, err := m.load(i, buf)
	if err != nil {
		return err
	}
	c.window = append(c.window, openBlock{events: events, base: info.StartIdx})
	return nil
}

// pickHead makes the minimum (corrected time, index) key across the
// window the cursor's head.
func (c *mergeCursor) pickHead() {
	c.wi = -1
	var t int64
	for k := range c.window {
		w := &c.window[k]
		tk, idx := c.fit.Apply(w.events[w.pos].Time), w.base+int64(w.pos)
		if c.wi < 0 || tk < t || (tk == t && idx < c.idx) {
			c.wi, t, c.idx = k, tk, idx
		}
	}
	w := &c.window[c.wi]
	c.head = w.events[w.pos]
	c.head.Time = t
}

// advance drops exhausted window blocks and re-establishes the
// cursor's head, after opening every further block that could still
// hold a smaller key. It returns false at the end of the node's
// stream.
func (m *merger) advance(c *mergeCursor) (bool, error) {
	for k := 0; k < len(c.window); {
		if c.window[k].pos >= len(c.window[k].events) {
			c.free = append(c.free, c.window[k].events[:0])
			c.window = append(c.window[:k], c.window[k+1:]...)
			continue
		}
		k++
	}
	for len(c.window) == 0 {
		if c.next >= len(c.blocks) {
			return false, nil
		}
		if err := m.openNext(c); err != nil {
			return false, err
		}
	}
	c.pickHead()
	// Open until the unopened blocks' bound clears the head.
	for c.next < len(c.blocks) && c.bound <= c.head.Time {
		if err := m.openNext(c); err != nil {
			return false, err
		}
		c.pickHead()
	}
	return true, nil
}

// step moves the cursor past its head event. In the steady state --
// one open block with events left, and the unopened blocks' bound
// above the new head -- that block's next event is the head; anything
// else goes through advance.
func (m *merger) step(c *mergeCursor) (bool, error) {
	w := &c.window[c.wi]
	w.pos++
	if len(c.window) == 1 && w.pos < len(w.events) {
		c.head = w.events[w.pos]
		c.head.Time = c.fit.Apply(c.head.Time)
		c.idx++
		if c.next == len(c.blocks) || c.bound > c.head.Time {
			return true, nil
		}
	}
	return m.advance(c)
}

// mergeBlocks streams the events of the indexed blocks to fn in
// (corrected time, flatten index) order, each with its timestamp
// mapped through its node's fit (IdentityFit for a node fits lacks;
// nil fits merges on raw local time). fn receives a pointer to the
// merge's copy of the event, valid only until fn returns. A non-nil
// error from load or fn aborts the merge and is returned.
func mergeBlocks(index []BlockInfo, fits map[uint16]ClockFit, load blockLoader, fn func(*Event) error) error {
	m := merger{index: index, load: load}
	// Group the blocks by node. Within a node, merge its blocks in
	// recording order (by SendLocal) rather than arrival order: per-
	// node blocks normally arrive in flush order, but a small residual
	// block can overtake a full one on the simulated network, and
	// recording order is what makes each node's event stream
	// time-sorted (node clocks are monotone, so every record in a
	// block is newer than the previous block's send stamp).
	byNode := make(map[uint16]*mergeCursor)
	var cursors []*mergeCursor
	for i := range index {
		n := index[i].Node
		c := byNode[n]
		if c == nil {
			fit, ok := fits[n]
			if !ok {
				fit = IdentityFit
			}
			c = &mergeCursor{fit: fit, bound: math.MinInt64}
			byNode[n] = c
			cursors = append(cursors, c)
		}
		c.blocks = append(c.blocks, int32(i))
	}
	for _, c := range cursors {
		slices.SortStableFunc(c.blocks, func(a, b int32) int {
			return cmp.Compare(index[a].SendLocal, index[b].SendLocal)
		})
	}

	// Prime the heap with each node's first event.
	heap := make([]*mergeCursor, 0, len(cursors))
	for _, c := range cursors {
		ok, err := m.advance(c)
		if err != nil {
			return err
		}
		if ok {
			heap = append(heap, c)
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}

	for len(heap) > 0 {
		c := heap[0]
		if err := fn(&c.head); err != nil {
			return err
		}
		ok, err := m.step(c)
		if err != nil {
			return err
		}
		if !ok {
			heap[0] = heap[len(heap)-1]
			heap[len(heap)-1] = nil
			heap = heap[:len(heap)-1]
		}
		siftDown(heap, 0)
	}
	return nil
}

// siftDown restores the min-heap property at index i.
func siftDown(h []*mergeCursor, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if rr := l + 1; rr < len(h) && h[rr].less(h[l]) {
			m = rr
		}
		if !h[m].less(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Events streams the postprocessed trace: every record with its
// timestamp mapped onto the collector timebase (the paper's clock
// drift correction), merged into chronological order. The stream is
// element-for-element Postprocess's over the same blocks, while
// decoding only one block per compute node at a time -- beyond the
// block index, peak memory is O(node buffers), not O(trace).
//
// fn receives a pointer to the merge's copy of the event; it must not
// retain the pointer across calls. A non-nil error from fn aborts the
// stream and is returned.
func (r *Reader) Events(fn func(*Event) error) error {
	return r.stream(fn, true)
}

// RawEvents is Events without the clock correction: records merge on
// their raw local-clock timestamps, matching PostprocessRaw (the
// drift-correction ablation).
func (r *Reader) RawEvents(fn func(*Event) error) error {
	return r.stream(fn, false)
}

func (r *Reader) stream(fn func(*Event) error, corrected bool) error {
	var fits map[uint16]ClockFit
	if corrected {
		fits = fitClocks(r.index)
	}
	// Blocks decode one at a time, so every cursor shares one payload
	// buffer; each cursor recycles its own event buffers.
	var raw []byte
	return mergeBlocks(r.index, fits, func(i int, buf []Event) ([]Event, error) {
		var events []Event
		var err error
		raw, events, err = r.loadBlock(i, raw, buf)
		return events, err
	}, fn)
}

// AllEvents materializes the postprocessed stream into one slice,
// allocating the event slice but never more than one decoded block per
// node.
func (r *Reader) AllEvents() ([]Event, error) { return r.collect(true) }

// collect materializes the merged stream, corrected or raw, growing
// the slice once.
func (r *Reader) collect(corrected bool) ([]Event, error) {
	out := make([]Event, 0, r.events)
	err := r.stream(func(ev *Event) error {
		out = append(out, *ev)
		return nil
	}, corrected)
	if err != nil {
		return nil, err
	}
	return out, nil
}
