package trace

import "sort"

// ReferencePostprocess is the batch postprocessor the k-way merge
// replaced, kept as the merge's independent oracle: fit every node's
// clock, flatten every block in trace order with each timestamp
// corrected (raw when corrected is false), and stable-sort by
// timestamp, so ties keep flatten order. The merge must reproduce it
// element for element on every trace whose per-node clocks are
// monotone. It is exported to the external test package, which runs
// whole studies through it.
func ReferencePostprocess(t *Trace, corrected bool) []Event {
	fits := map[uint16]ClockFit{}
	if corrected {
		accs := map[uint16]*clockAcc{}
		for _, b := range t.Blocks {
			if accs[b.Node] == nil {
				accs[b.Node] = &clockAcc{}
			}
			accs[b.Node].add(b.SendLocal, b.RecvCollector)
		}
		for node, a := range accs {
			fits[node] = a.fit()
		}
	}
	var out []Event
	for _, b := range t.Blocks {
		fit, ok := fits[b.Node]
		if !ok {
			fit = IdentityFit
		}
		for _, ev := range b.Events {
			ev.Time = fit.Apply(ev.Time)
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}
