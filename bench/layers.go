package main

import "strings"

// opTrace is one traced op reduced to per-span-name totals.
type opTrace struct {
	work     float64            // op seconds minus the benchmark's own bench.* spans
	unspent  float64            // op seconds inside no child span
	self     map[string]float64 // self seconds per span name
	alloc    map[string]float64 // self MB allocated per span name
	values   map[string]float64 // live-heap samples
	counters map[string]float64
}

func (o opTrace) secs(names ...string) float64 {
	var t float64
	for _, n := range names {
		t += o.self[n]
	}
	return t
}

func (o opTrace) mb(names ...string) float64 {
	var t float64
	for _, n := range names {
		t += o.alloc[n]
	}
	return t
}

// share is a stage's self time as a percentage of the op's work time.
func (o opTrace) share(names ...string) float64 { return 100 * ratio(o.secs(names...), o.work) }

// rate is a count per second of the named stages' self time.
func (o opTrace) rate(counter string, names ...string) float64 {
	return ratio(o.counters[counter], o.secs(names...))
}

// Span groups shared by several metrics.
var (
	analysisSpans = []string{"analysis.analyze", "analysis.observe"}
	cacheSpans    = []string{"cachesim.fig8", "cachesim.fig9", "cachesim.combined"}
)

// perLayer lists the metrics of the traced pass. Host time appears as
// a stage's share of the op or as a layer's throughput, never as a
// bare duration: a layer a workload bypasses then reads 0 % or 0/s.
// Each value is the median over the traced ops.
var perLayer = []struct {
	name, unit string
	of         func(opTrace) float64
}{
	// Where an op's time goes: self-time shares of the op.
	{"workload.install_pct", "%", func(o opTrace) float64 { return o.share("workload.install") }},
	{"machine.new_pct", "%", func(o opTrace) float64 { return o.share("machine.new") }},
	{"sim.run_pct", "%", func(o opTrace) float64 { return o.share("sim.run") }},
	{"trace.finish_pct", "%", func(o opTrace) float64 { return o.share("trace.finish") }},
	{"trace.postprocess_pct", "%", func(o opTrace) float64 { return o.share("trace.postprocess") }},
	{"trace.replay_pct", "%", func(o opTrace) float64 { return o.share("trace.replay") }},
	{"analysis.analyze_pct", "%", func(o opTrace) float64 { return o.share(analysisSpans...) }},
	{"analysis.format_pct", "%", func(o opTrace) float64 { return o.share("analysis.format") }},
	{"cachesim.fig8_pct", "%", func(o opTrace) float64 { return o.share("cachesim.fig8") }},
	{"cachesim.fig9_pct", "%", func(o opTrace) float64 { return o.share("cachesim.fig9") }},
	{"cachesim.combined_pct", "%", func(o opTrace) float64 { return o.share("cachesim.combined") }},
	{"twin.predict_pct", "%", func(o opTrace) float64 { return o.share("twin.predict") }},
	{"store.run_pct", "%", func(o opTrace) float64 { return o.share("store.run") }},
	{"store.merge_pct", "%", func(o opTrace) float64 { return o.share("store.merge") }},
	{"store.rerun_pct", "%", func(o opTrace) float64 { return o.share("store.rerun") }},
	{"op.unattributed_pct", "%", func(o opTrace) float64 { return 100 * ratio(o.unspent, o.work) }},

	// Layer throughput: work done per second of the layer's self time.
	{"sim.records_per_s", "1/s", func(o opTrace) float64 { return o.rate("trace.records", "sim.run") }},
	{"trace.postprocess_events_per_s", "1/s", func(o opTrace) float64 { return o.rate("trace.records", "trace.postprocess") }},
	{"trace.replay_events_per_s", "1/s", func(o opTrace) float64 { return o.rate("trace.records", "trace.replay") }},
	{"analysis.events_per_s", "1/s", func(o opTrace) float64 { return o.rate("trace.records", analysisSpans...) }},
	{"cachesim.accesses_per_s", "1/s", func(o opTrace) float64 { return o.rate("cachesim.accesses", cacheSpans...) }},
	{"twin.batches_per_s", "1/s", func(o opTrace) float64 { return o.rate("twin.batches", "twin.predict") }},
	{"sweep.sim_hours_per_s", "1/s", func(o opTrace) float64 { return o.rate("sweep.sim_hours", "store.run") }},

	// Memory: bytes allocated inside a layer, and the live heap after
	// the trace is merged and after it is analyzed.
	{"sim.alloc_mb", "MB", func(o opTrace) float64 { return o.mb("sim.run") }},
	{"trace.merge_alloc_mb", "MB", func(o opTrace) float64 { return o.mb("trace.postprocess", "trace.replay") }},
	{"analysis.alloc_mb", "MB", func(o opTrace) float64 { return o.mb("analysis.analyze", "analysis.observe", "analysis.format") }},
	{"cachesim.alloc_mb", "MB", func(o opTrace) float64 { return o.mb(cacheSpans...) }},
	{"twin.alloc_mb", "MB", func(o opTrace) float64 { return o.mb("twin.predict") }},
	{"trace.live_mb", "MB", func(o opTrace) float64 { return o.values["trace.live_mb"] }},
	{"analysis.live_mb", "MB", func(o opTrace) float64 { return o.values["analysis.live_mb"] }},
}

// simulated lists the simulated counters the traced pass reports:
// they repeat exactly for a seed, and a change that only speeds up the
// host must leave them identical.
var simulated = []struct{ name, unit string }{
	{"workload.jobs", "count"},
	{"cfs.requests", "count"},
	{"cfs.ionode_hit_ratio", "ratio"},
	{"cfs.prefetches", "count"},
	{"cfs.queue_wait_sim_s", "sim_s"},
	{"cfs.busiest_util", "ratio"},
	{"disk.ops", "count"},
	{"disk.busy_sim_s", "sim_s"},
	{"topo.messages", "count"},
	{"topo.mb_sent", "MB"},
	{"trace.records", "count"},
	{"trace.messages", "count"},
	{"trace.records_per_message", "ratio"},
	{"trace.spill_mb", "MB"},
	{"cachesim.accesses", "count"},
	{"cachesim.hit_ratio", "ratio"},
	{"twin.batches", "count"},
	{"store.outcomes", "count"},
}

// opTraces reduces a traced pass's spans to one opTrace per op.
func opTraces(rec *Recorder, samples []sample) []opTrace {
	ops := make([]opTrace, len(samples))
	for i, s := range samples {
		ops[i] = opTrace{self: map[string]float64{}, alloc: map[string]float64{},
			values: rec.values[i], counters: s.res.counters}
	}
	self, alloc := selfTimes(rec.spans), selfAllocs(rec.spans)
	for i, s := range rec.spans {
		o := &ops[s.Op]
		switch {
		case s.Parent < 0:
			o.work += (s.End - s.Start).Seconds()
			o.unspent = self[i].Seconds()
		case strings.HasPrefix(s.Name, "bench."):
			o.work -= (s.End - s.Start).Seconds()
		default:
			o.self[s.Name] += self[i].Seconds()
			o.alloc[s.Name] += float64(alloc[i]) / 1e6
		}
	}
	return ops
}

// layerMetrics computes the per-layer metrics of perLayer and
// simulated as medians over the traced ops; tracedPass adds the Go
// runtime metrics.
func layerMetrics(rec *Recorder, samples []sample) map[string]metricValue {
	ops := opTraces(rec, samples)
	ms := make(map[string]metricValue, len(perLayer)+len(simulated))
	for _, m := range perLayer {
		vals := make([]float64, len(ops))
		for i, o := range ops {
			vals[i] = m.of(o)
		}
		ms[m.name] = metricValue{median(vals), m.unit}
	}
	for _, m := range simulated {
		vals := make([]float64, len(ops))
		for i, o := range ops {
			vals[i] = o.counters[m.name]
		}
		ms[m.name] = metricValue{median(vals), m.unit}
	}
	return ms
}
