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
// without locks. Processes block with Sleep, Suspend, or
// WaitGroup.Wait, returning control to the kernel until the corresponding wakeup event
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

// event is one scheduled callback. Its place in the queue is its
// scheduling order, so it carries no sequence number.
type event struct {
	t  Time
	fn func()
}

// Kernel is a discrete-event simulator. The zero value is ready to use.
//
// Events run in (time, scheduling order): of the events at one instant,
// the one scheduled first runs first, including events scheduled at
// the current instant from inside a running event. The queue is a radix
// heap on event time (see queue.go), so scheduling is an append and
// dispatch costs a few bucket moves per event, not a heap sift.
type Kernel struct {
	now     Time
	q       eventQueue
	stopped bool
}

// New returns a fresh kernel with the clock at zero.
func New() *Kernel { return &Kernel{} }

// Reset returns the kernel to its initial state -- clock at zero, no
// pending events -- while keeping the queue's bucket arrays, cleared so
// no closure stays reachable. A kernel reused across simulations
// (core's sweep worker reuses one for all its studies) therefore stops
// allocating queue storage once the first simulation has sized it. Resetting a kernel with live
// processes is not supported; call it only after Run has drained the
// queue.
func (k *Kernel) Reset() {
	k.now = 0
	k.stopped = false
	k.q.reset()
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: events must not travel backwards.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.q.push(event{t: t, fn: fn})
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
func (k *Kernel) Pending() int { return k.q.len() }

// Stop makes Run and RunUntil return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the queue is empty or Stop is called.
// Events after 1<<62-1 stay pending.
func (k *Kernel) Run() { k.RunUntil(1<<62 - 1) }

// RunUntil executes all events with time <= limit, in order, until
// none is left or Stop is called. It then advances the clock to limit
// if the clock is behind it and no pending event is due by limit, so
// the clock never passes an event that Stop left pending. A panic in a
// process body propagates out of RunUntil, annotated with the process
// name.
func (k *Kernel) RunUntil(limit Time) {
	k.stopped = false
	for !k.stopped {
		e, ok := k.q.pop(limit)
		if !ok {
			break
		}
		k.now = e.t
		e.fn()
	}
	if k.now < limit && limit < 1<<62-1 && !k.q.due(limit) {
		k.now = limit
	}
}
