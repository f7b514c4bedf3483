package sim

import "math/bits"

// This file implements the kernel's event storage: a radix heap on
// event time (Ahuja, Mehlhorn, Orlin & Tarjan, "Faster algorithms for
// the shortest path problem", JACM 37(2), 1990), in the XOR form.
//
// last is the time of the event most recently taken out. An event at t
// lives in bucket bits.Len64(t ^ last): bucket 0 holds exactly the
// events at last, and bucket i > 0 those whose highest bit differing
// from last is bit i-1. A push is an append. A pop takes the front of
// bucket 0. When bucket 0 is empty, refill makes the minimum time of
// the lowest non-empty bucket the new last and moves that bucket's
// events down, the ones at last into bucket 0. An event moves at most
// 63 times; in a NAS study it moves about twice.
//
// Dispatch order is exactly (t, scheduling order):
//
//   - An event's bucket depends only on t ^ last, so events with equal
//     t always share a bucket. A refill of bucket i changes last only
//     in bit i-1 and below, so every event in a higher bucket keeps
//     its bucket.
//   - Every bucket is in scheduling order. A push appends the newest
//     event. A refill runs only when every bucket below its source is
//     empty, and walks the source in order, appending each event.
//   - So bucket 0 is the events at last in scheduling order. An event
//     scheduled at the current instant from inside a running event
//     appends behind them, which is the kernel's same-instant rule:
//     events scheduled earlier for an instant run before one scheduled
//     during it.
//
// The invariant is last <= t for every queued event. Kernel.At rejects
// t < now, and now >= last holds because the clock never moves
// backwards and a refill never moves last past RunUntil's limit (it
// checks the minimum before moving anything). Times are never
// negative, so 64 buckets cover every Time.
//
// Taking events out leaves their copies in the bucket storage until
// later pushes overwrite them, so the queue can keep a closure alive
// after it ran; reset clears the storage. Clearing on every dispatch
// and refill made BenchmarkKernelStudyMix 13% slower.

// eventQueue is the radix heap. The zero value is empty.
type eventQueue struct {
	last Time
	head int    // next event of b[0]
	n    int    // queued events
	mask uint64 // bit i > 0 is set if b[i] is non-empty
	b    [64][]event
}

func (q *eventQueue) len() int { return q.n }

func (q *eventQueue) push(e event) {
	i := bits.Len64(uint64(e.t ^ q.last))
	q.b[i] = append(q.b[i], e)
	q.mask |= 1 << i
	q.n++
}

// pop removes and returns the first event, reporting false, with the
// queue unchanged, if no event is due by limit.
func (q *eventQueue) pop(limit Time) (e event, ok bool) {
	b0 := q.b[0]
	if q.head == len(b0) {
		return q.refill(limit)
	}
	if q.last > limit {
		return e, false
	}
	e = b0[q.head]
	if q.head++; q.head == len(b0) {
		// Rewind now, so events the callback schedules at this
		// instant reuse the drained storage.
		q.b[0], q.head = b0[:0], 0
	}
	q.n--
	return e, true
}

// due reports whether an event is due by limit.
func (q *eventQueue) due(limit Time) bool {
	if q.head < len(q.b[0]) {
		return q.last <= limit
	}
	_, m, ok := q.lowest()
	return ok && m <= limit
}

// refill is pop with bucket 0 empty. It makes the minimum time of the
// lowest non-empty bucket the new last and moves that bucket's events
// down, unless the minimum is past limit.
func (q *eventQueue) refill(limit Time) (e event, ok bool) {
	i, m, ok := q.lowest()
	if !ok || m > limit {
		return e, false
	}
	q.last = m
	src := q.b[i]
	q.b[i] = src[:0]
	q.mask &^= 1 << i
	if len(src) == 1 {
		// About half of all refills: the event is alone in its
		// bucket and needs no move.
		e = src[0]
		q.n--
		return e, true
	}
	mask := q.mask
	for _, e := range src {
		j := bits.Len64(uint64(e.t ^ m))
		q.b[j] = append(q.b[j], e)
		mask |= 1 << j
	}
	q.mask = mask
	return q.pop(limit)
}

// lowest returns the lowest non-empty bucket above 0 and the minimum
// time in it, which is the minimum time queued outside bucket 0.
func (q *eventQueue) lowest() (i int, m Time, ok bool) {
	if q.mask&^1 == 0 {
		return 0, 0, false
	}
	i = bits.TrailingZeros64(q.mask &^ 1)
	b := q.b[i]
	m = b[0].t
	for _, e := range b[1:] {
		m = min(m, e.t)
	}
	return i, m, true
}

// reset empties the queue, keeping every bucket's backing array but
// clearing it whole, so no closure of a finished simulation stays
// reachable.
func (q *eventQueue) reset() {
	for i, b := range q.b {
		clear(b[:cap(b)])
		q.b[i] = b[:0]
	}
	q.last, q.head, q.n, q.mask = 0, 0, 0, 0
}
