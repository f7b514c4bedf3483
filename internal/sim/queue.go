package sim

// This file implements the kernel's event storage: a hand-specialized
// 4-ary min-heap for future events plus a FIFO ring for events
// scheduled at the current instant.
//
// The heap stores event structs directly (no interface boxing, unlike
// container/heap) and sifts with a single hole-move per level instead
// of pairwise swaps. A 4-ary layout halves the tree depth of a binary
// heap; the extra sibling comparisons are cheap because all four
// children share a cache line or two.
//
// The FIFO absorbs the After(0, ...) traffic generated by Wake,
// Sleep(0) and Spawn. Those events always run at the instant they
// are scheduled, in scheduling order, so a ring buffer serves them
// without touching the heap at all. Ordering with respect to heap
// events is preserved by construction: a heap event at time t was
// necessarily scheduled while now < t and therefore carries a smaller
// sequence number than any same-instant event enqueued at now == t, so
// the dispatcher drains heap events at the current instant before FIFO
// events (see Kernel.RunUntil).

// eventHeap is a 4-ary min-heap ordered by (t, seq).
type eventHeap struct {
	ev []event
}

func (h *eventHeap) len() int { return len(h.ev) }

// push inserts e, sifting it up with hole moves.
func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	ev := h.ev
	i := len(ev) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		p := ev[parent]
		if p.t < e.t || (p.t == e.t && p.seq < e.seq) {
			break
		}
		ev[i] = p
		i = parent
	}
	ev[i] = e
}

// reset empties the heap, keeping the backing array but releasing the
// event closures so finished simulations can be collected.
func (h *eventHeap) reset() {
	for i := range h.ev {
		h.ev[i].fn = nil
	}
	h.ev = h.ev[:0]
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	ev := h.ev
	top := ev[0]
	n := len(ev) - 1
	last := ev[n]
	ev[n].fn = nil // release the closure
	h.ev = ev[:n]
	if n > 0 {
		h.siftDown(last)
	}
	return top
}

// siftDown places e (conceptually at the root hole) by walking the
// minimum-child path.
func (h *eventHeap) siftDown(e event) {
	ev := h.ev
	n := len(ev)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m, me := c, ev[c]
		for j := c + 1; j < end; j++ {
			je := ev[j]
			if je.t < me.t || (je.t == me.t && je.seq < me.seq) {
				m, me = j, je
			}
		}
		if e.t < me.t || (e.t == me.t && e.seq < me.seq) {
			break
		}
		ev[i] = me
		i = m
	}
	ev[i] = e
}

// eventFIFO is a ring of same-instant events in scheduling order. The
// backing slice is reused once drained, so steady-state operation does
// not allocate.
type eventFIFO struct {
	buf  []event
	head int
}

func (f *eventFIFO) len() int { return len(f.buf) - f.head }

func (f *eventFIFO) push(e event) { f.buf = append(f.buf, e) }

func (f *eventFIFO) front() *event { return &f.buf[f.head] }

// reset empties the ring, keeping the backing array but releasing the
// event closures.
func (f *eventFIFO) reset() {
	for i := f.head; i < len(f.buf); i++ {
		f.buf[i].fn = nil
	}
	f.buf = f.buf[:0]
	f.head = 0
}

func (f *eventFIFO) pop() event {
	e := f.buf[f.head]
	f.buf[f.head].fn = nil // release the closure
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return e
}
