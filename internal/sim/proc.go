//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulation process: a coroutine whose execution is
// interleaved deterministically with other processes by the kernel.
// All Proc methods must be called from the process's own body (the
// function passed to Spawn), except Wake, which any running process or
// event may call.
type Proc struct {
	k         *Kernel
	name      string
	next      func() (struct{}, bool) // resumes the body until it blocks or returns
	yield     func(struct{}) bool     // suspends the body back to next's caller
	stepFn    func()                  // p.step, bound once at Spawn so Sleep/Wake don't allocate
	done      bool
	suspended bool
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.Now() }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Spawn creates a process running body, starting at the current
// virtual time (after already-queued events at that time).
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	p.stepFn = p.step
	k.After(0, func() {
		// The stop function is dropped: a body that returns releases its
		// coroutine, and one still blocked when the simulation ends is
		// never resumed.
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer func() {
				if r := recover(); r != nil {
					// iter.Pull re-raises this in the caller of next,
					// so it surfaces from Run with the process named.
					panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
				}
			}()
			body(p)
		})
		p.step()
	})
	return p
}

// step resumes the process body until it blocks or returns. It runs
// inside a kernel event; the switch into the coroutine and back happens
// on the current thread without going through the Go scheduler.
func (p *Proc) step() {
	if p.done {
		return
	}
	if _, ok := p.next(); !ok {
		p.done = true
	}
}

// block suspends the process body, returning control to the kernel
// event that resumed it, until the next step.
func (p *Proc) block() { p.yield(struct{}{}) }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.k.After(d, p.stepFn)
	p.block()
}

// Suspend blocks the process until another process or event calls Wake.
// Calling Suspend while already suspended is impossible by construction
// (the process is not running then).
func (p *Proc) Suspend() {
	p.suspended = true
	p.block()
}

// Wake schedules the process to resume at the current virtual time.
// Waking a process that is not suspended panics: it indicates a lost
// or duplicated wakeup in the caller.
func (p *Proc) Wake() {
	if p.done {
		panic(fmt.Sprintf("sim: waking finished process %q", p.name))
	}
	if !p.suspended {
		panic(fmt.Sprintf("sim: waking non-suspended process %q", p.name))
	}
	p.suspended = false
	p.k.After(0, p.stepFn)
}

// WaitGroup lets a process wait for a set of operations to finish.
type WaitGroup struct {
	count  int
	waiter *Proc
}

// Add increments the outstanding-operation count.
func (w *WaitGroup) Add(n int) { w.count += n }

// Done decrements the count and wakes the waiter at zero.
func (w *WaitGroup) Done() {
	w.count--
	if w.count < 0 {
		panic("sim: WaitGroup count below zero")
	}
	if w.count == 0 && w.waiter != nil {
		p := w.waiter
		w.waiter = nil
		p.Wake()
	}
}

// Wait blocks p until the count reaches zero. Only one process may
// wait at a time.
func (w *WaitGroup) Wait(p *Proc) {
	if w.waiter != nil {
		panic("sim: WaitGroup already has a waiter")
	}
	for w.count > 0 {
		w.waiter = p
		p.Suspend()
	}
}
