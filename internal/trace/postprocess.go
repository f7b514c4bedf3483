package trace

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
// timestamp pairs for the least-squares clock fit.
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
	return fitClocks(t.index())
}

// fitClocks fits every node's clock from a block index, accumulating
// the double timestamps in index order.
func fitClocks(index []BlockInfo) map[uint16]ClockFit {
	accs := make(map[uint16]*clockAcc)
	for i := range index {
		b := &index[i]
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
// their original per-node order when corrected timestamps tie. The
// trace's blocks are read, never modified.
//
// The stream comes out of the k-way merge in stream.go, which assumes
// what every collected trace satisfies: each node's clock is monotone,
// so its events, taken block by block in recording order, are already
// in time order. A trace whose events go backwards within a node comes
// out in that block order rather than sorted.
func Postprocess(t *Trace) []Event {
	// A Reader over in-memory blocks has nothing to fail on.
	events, _ := t.Reader().collect(true)
	return events
}

// PostprocessRaw merges the trace on the raw local timestamps with no
// clock correction. It exists to measure how much event-order error
// the drift correction removes (an ablation: compare its output with
// Postprocess on the same trace).
func PostprocessRaw(t *Trace) []Event {
	events, _ := t.Reader().collect(false)
	return events
}

// Reader returns a Reader over the collected blocks, so a collected
// trace and a .trc file are read through one type. Its blocks load as
// they are -- no copy, no encoding -- and nothing is written into the
// trace. The Reader is valid while t.Blocks is.
func (t *Trace) Reader() *Reader {
	index := t.index()
	var events int64
	if n := len(index); n > 0 {
		events = index[n-1].StartIdx + int64(index[n-1].Count)
	}
	return &Reader{header: t.Header, index: index, events: events, blocks: t.Blocks}
}

// index describes the trace's blocks the way a Reader indexes a .trc
// file, with flatten indices counted in block order.
func (t *Trace) index() []BlockInfo {
	index := make([]BlockInfo, len(t.Blocks))
	var start int64
	for i := range t.Blocks {
		b := &t.Blocks[i]
		index[i] = BlockInfo{
			StartIdx:      start,
			SendLocal:     b.SendLocal,
			RecvCollector: b.RecvCollector,
			Count:         uint32(len(b.Events)),
			Node:          b.Node,
		}
		start += int64(len(b.Events))
	}
	return index
}

// OrderError counts the adjacent pairs of candidate that trueTime
// puts out of order: every i with trueTime(candidate[i-1]) >
// trueTime(candidate[i]). trueTime recovers an event's true simulation
// time from wherever the caller stashed it (tests and the postprocess
// example keep it in a spare field). It scores the drift-correction
// ablation: lower is better, and 0 means the candidate agrees with
// true time.
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
