package sim

import "fmt"

// This file keeps the event queue the kernel used before its radix
// heap, as a test oracle: a 4-ary min-heap ordered by (t, seq) for
// future events, a FIFO ring for events scheduled at the current
// instant, and the RunUntil dispatch that chose between them. The code
// is unchanged apart from type names. TestKernelMatchesReference runs
// both kernels on identical random scripts.
//
// The one intended difference is RunUntil after Stop: this kernel
// jumps the clock to limit even while an event due by then is pending,
// so the clock can later run backwards. The randomized test therefore
// never runs a finite-limit RunUntil while Stop can fire.

// refEvent is one scheduled callback, ordered by (t, seq).
type refEvent struct {
	t   Time
	seq uint64
	fn  func()
}

// refKernel is the old kernel's queue state.
type refKernel struct {
	now     Time
	heap    refHeap // future events
	fifo    refFIFO // events scheduled for the current instant
	seq     uint64
	stopped bool
}

// Reset returns the kernel to its initial state.
func (k *refKernel) Reset() {
	k.now = 0
	k.seq = 0
	k.stopped = false
	k.heap.reset()
	k.fifo.reset()
}

// Now returns the current virtual time.
func (k *refKernel) Now() Time { return k.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: events must not travel backwards.
func (k *refKernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	e := refEvent{t: t, seq: k.seq, fn: fn}
	if t == k.now {
		// Same-instant events run in scheduling order, after any heap
		// events at this instant (those were scheduled earlier and have
		// smaller sequence numbers). A FIFO serves them without heap
		// sift costs.
		k.fifo.push(e)
		return
	}
	k.heap.push(e)
}

// After schedules fn to run d after the current time. Negative delays
// panic.
func (k *refKernel) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	k.At(k.now+d, fn)
}

// Pending reports the number of queued events.
func (k *refKernel) Pending() int { return k.heap.len() + k.fifo.len() }

// Stop makes Run and RunUntil return after the current event completes.
func (k *refKernel) Stop() { k.stopped = true }

// Run executes events until the queue is empty or Stop is called.
func (k *refKernel) Run() { k.RunUntil(1<<62 - 1) }

// RunUntil executes all events with time <= limit, then advances the
// clock to limit (if it is not already past it). A panic in a process
// body propagates out of RunUntil, annotated with the process name.
func (k *refKernel) RunUntil(limit Time) {
	k.stopped = false
	for !k.stopped {
		var e refEvent
		if k.fifo.len() > 0 {
			f := k.fifo.front()
			if k.heap.len() > 0 && k.heap.ev[0].t <= f.t {
				// A heap event at the same instant was scheduled
				// before any FIFO event at that instant (and so has a
				// smaller sequence number); run it first.
				e = k.heap.pop()
			} else {
				if f.t > limit {
					break
				}
				e = k.fifo.pop()
			}
		} else if k.heap.len() > 0 {
			if k.heap.ev[0].t > limit {
				break
			}
			e = k.heap.pop()
		} else {
			break
		}
		k.now = e.t
		e.fn()
	}
	if k.now < limit && limit < 1<<62-1 {
		k.now = limit
	}
}

// refHeap is a 4-ary min-heap ordered by (t, seq).
type refHeap struct {
	ev []refEvent
}

func (h *refHeap) len() int { return len(h.ev) }

// push inserts e, sifting it up with hole moves.
func (h *refHeap) push(e refEvent) {
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
func (h *refHeap) reset() {
	for i := range h.ev {
		h.ev[i].fn = nil
	}
	h.ev = h.ev[:0]
}

// pop removes and returns the minimum event.
func (h *refHeap) pop() refEvent {
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
func (h *refHeap) siftDown(e refEvent) {
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

// refFIFO is a ring of same-instant events in scheduling order. The
// backing slice is reused once drained, so steady-state operation does
// not allocate.
type refFIFO struct {
	buf  []refEvent
	head int
}

func (f *refFIFO) len() int { return len(f.buf) - f.head }

func (f *refFIFO) push(e refEvent) { f.buf = append(f.buf, e) }

func (f *refFIFO) front() *refEvent { return &f.buf[f.head] }

// reset empties the ring, keeping the backing array but releasing the
// event closures.
func (f *refFIFO) reset() {
	for i := f.head; i < len(f.buf); i++ {
		f.buf[i].fn = nil
	}
	f.buf = f.buf[:0]
	f.head = 0
}

func (f *refFIFO) pop() refEvent {
	e := f.buf[f.head]
	f.buf[f.head].fn = nil // release the closure
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return e
}
