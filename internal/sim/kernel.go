// Package sim implements a deterministic discrete-event simulation
// kernel with lightweight processes.
//
// The kernel maintains a virtual clock and an event queue ordered by
// (time, sequence number), so simulations are reproducible: two runs
// with the same inputs execute events in exactly the same order.
//
// Processes are coroutines (iter.Pull): a kernel event resumes a
// process body, which runs until it blocks and then switches straight
// back to that event. Exactly one of the kernel loop or a single
// process runs at any instant, which keeps the simulation deterministic
// without locks. Processes block with Sleep, Suspend, or Chan.Recv,
// returning control to the kernel until the corresponding wakeup event
// fires.
package sim

import "fmt"

// Time is virtual simulation time in microseconds.
type Time int64

// Common durations in virtual microseconds.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Seconds converts a floating-point second count to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// ToSeconds converts t to floating-point seconds.
func (t Time) ToSeconds() float64 { return float64(t) / float64(Second) }

// String renders the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.ToSeconds()) }

// event is one scheduled callback, ordered by (t, seq).
type event struct {
	t   Time
	seq uint64
	fn  func()
}

// Kernel is a discrete-event simulator. The zero value is ready to use.
type Kernel struct {
	now     Time
	heap    eventHeap // future events
	fifo    eventFIFO // events scheduled for the current instant
	seq     uint64
	stopped bool
}

// New returns a fresh kernel with the clock at zero.
func New() *Kernel { return &Kernel{} }

// Reset returns the kernel to its initial state -- clock at zero, no
// pending events, sequence counter rewound -- while keeping the event
// heap's and FIFO's backing arrays. A kernel reused across simulations
// (see core.Arena) therefore stops allocating queue storage once the
// first simulation has sized it. Resetting a kernel with live
// processes is not supported; call it only after Run has drained the
// queue.
func (k *Kernel) Reset() {
	k.now = 0
	k.seq = 0
	k.stopped = false
	k.heap.reset()
	k.fifo.reset()
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: events must not travel backwards.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	e := event{t: t, seq: k.seq, fn: fn}
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
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	k.At(k.now+d, fn)
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return k.heap.len() + k.fifo.len() }

// Stop makes Run and RunUntil return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the queue is empty or Stop is called.
func (k *Kernel) Run() { k.RunUntil(1<<62 - 1) }

// RunUntil executes all events with time <= limit, then advances the
// clock to limit (if it is not already past it). A panic in a process
// body propagates out of RunUntil, annotated with the process name.
func (k *Kernel) RunUntil(limit Time) {
	k.stopped = false
	for !k.stopped {
		var e event
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
