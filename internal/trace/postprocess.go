package trace

import "sort"

// ClockFit is an affine map from one node's local clock onto the
// collector's timebase: collector ~= Offset + Slope * local.
type ClockFit struct {
	Offset float64
	Slope  float64
}

// Apply maps a local timestamp to the collector timebase.
func (f ClockFit) Apply(local int64) int64 {
	return int64(f.Offset + f.Slope*float64(local))
}

// IdentityFit maps local time to itself.
var IdentityFit = ClockFit{Offset: 0, Slope: 1}

// clockAcc accumulates one node's (SendLocal, RecvCollector) block
// timestamp pairs for the least-squares clock fit. It is shared by
// FitClocks (materialized traces) and Reader.fitClocks (streaming over
// the block index): both accumulate in block order with identical
// float arithmetic, so the fits are bit-identical.
type clockAcc struct {
	n                        float64
	sumX, sumY, sumXY, sumXX float64
}

func (a *clockAcc) add(sendLocal, recvCollector int64) {
	x, y := float64(sendLocal), float64(recvCollector)
	a.n++
	a.sumX += x
	a.sumY += y
	a.sumXY += x * y
	a.sumXX += x * x
}

func (a *clockAcc) fit() ClockFit {
	meanX := a.sumX / a.n
	meanY := a.sumY / a.n
	varX := a.sumXX/a.n - meanX*meanX
	cov := a.sumXY/a.n - meanX*meanY
	fit := ClockFit{Slope: 1, Offset: meanY - meanX}
	// Require a spread of send times before trusting the slope:
	// a nearly-vertical cluster of points yields a wild line.
	if a.n >= 2 && varX > 1e6 { // > 1 ms^2 spread
		slope := cov / varX
		// Clock drift on real hardware is parts-per-thousand at
		// worst; reject degenerate fits from pathological traces.
		if slope > 0.9 && slope < 1.1 {
			fit.Slope = slope
			fit.Offset = meanY - slope*meanX
		}
	}
	return fit
}

// FitClocks estimates, for every node appearing in the trace, the
// affine clock map from that node's local clock to the collector's
// clock, using the double timestamps on each block (the node's
// SendLocal and the collector's RecvCollector). This reproduces the
// paper's drift-compensation technique: with several blocks per node a
// least-squares line captures both offset and drift rate; with a
// single block only the offset can be estimated.
func FitClocks(t *Trace) map[uint16]ClockFit {
	accs := make(map[uint16]*clockAcc)
	for _, b := range t.Blocks {
		a := accs[b.Node]
		if a == nil {
			a = &clockAcc{}
			accs[b.Node] = a
		}
		a.add(b.SendLocal, b.RecvCollector)
	}
	fits := make(map[uint16]ClockFit, len(accs))
	for node, a := range accs {
		fits[node] = a.fit()
	}
	return fits
}

// Postprocess performs the paper's three postprocessing steps -- data
// realignment, clock synchronization, and chronological sorting -- and
// returns a single corrected, time-ordered event stream. Events keep
// their original per-node order when corrected timestamps tie.
func Postprocess(t *Trace) []Event {
	return PostprocessInto(t, nil)
}

// PostprocessInto is Postprocess drawing its working storage -- the
// flattened copy, the sort keys, and the returned stream itself --
// from the arena. The returned slice is owned by the arena: it is
// valid only until the arena's next PostprocessInto call. A nil arena
// allocates fresh storage (identical to Postprocess).
func PostprocessInto(t *Trace, a *Arena) []Event {
	fits := FitClocks(t)
	return flattenSorted(t, func(node uint16) ClockFit {
		if f, ok := fits[node]; ok {
			return f
		}
		return IdentityFit
	}, a)
}

// PostprocessRaw flattens and sorts the trace on the raw local
// timestamps with no clock correction. It exists to measure how much
// event-order error the drift correction removes (an ablation: compare
// its output with Postprocess on the same trace).
func PostprocessRaw(t *Trace) []Event {
	return flattenSorted(t, func(uint16) ClockFit { return IdentityFit }, nil)
}

// sortKey orders one flattened event by (corrected time, flatten
// index); see flattenSorted.
type sortKey struct {
	time int64
	idx  int32
}

func flattenSorted(t *Trace, fitFor func(uint16) ClockFit, a *Arena) []Event {
	var n int
	for _, b := range t.Blocks {
		n += len(b.Events)
	}
	var events []Event
	var keys []sortKey
	var out []Event
	if a != nil {
		events = sliceFor(&a.flat, n)[:0]
		keys = sliceFor(&a.keys, n)
		out = sliceFor(&a.out, n)
	} else {
		events = make([]Event, 0, n)
		keys = make([]sortKey, n)
		out = make([]Event, n)
	}
	for _, b := range t.Blocks {
		fit := fitFor(b.Node)
		for _, ev := range b.Events {
			ev.Time = fit.Apply(ev.Time)
			events = append(events, ev)
		}
	}
	// Sort compact (time, index) keys instead of the events themselves:
	// the keys are a quarter the size of an Event and compare without
	// reflection, and the index tiebreak yields exactly the order a
	// stable sort of the events would. One pass then gathers the events
	// into place.
	for i := range events {
		keys[i] = sortKey{time: events[i].Time, idx: int32(i)}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].time != keys[j].time {
			return keys[i].time < keys[j].time
		}
		return keys[i].idx < keys[j].idx
	})
	for i, k := range keys {
		out[i] = events[k.idx]
	}
	return out
}

// sliceFor resizes *s to length n, growing the backing array only when
// the pooled capacity is insufficient, and returns it.
func sliceFor[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// OrderError counts adjacent inversions between a candidate event
// ordering and the true ordering given by reference timestamps keyed
// by (Node, Seq)-free identity; here we approximate by counting pairs
// of data events from different nodes whose relative order differs
// from their true simulation order. It is used by tests and the
// drift-correction ablation: lower is better.
func OrderError(candidate []Event, trueTime func(Event) int64) int {
	errors := 0
	for i := 1; i < len(candidate); i++ {
		a, b := candidate[i-1], candidate[i]
		if trueTime(a) > trueTime(b) {
			errors++
		}
	}
	return errors
}
