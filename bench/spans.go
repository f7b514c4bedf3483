package main

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded around a public API
// call by the benchmark itself (the program under test carries no
// instrumentation).
type Span struct {
	Parent int // index of the parent span; -1 for an op's root span
	Op     int // the op the span belongs to
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Alloc  uint64 // bytes allocated while the span was open
}

// Recorder keeps the spans of a traced pass in memory; they are
// written out once the pass ends. A nil *Recorder is the untraced
// pass: Do then only calls fn, so both passes run the same code.
type Recorder struct {
	epoch  time.Time
	spans  []Span
	open   []int
	op     int
	values []map[string]float64 // per-op samples taken at span boundaries
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// StartOp makes subsequent spans belong to op i.
func (r *Recorder) StartOp(i int) {
	if r == nil {
		return
	}
	r.op = i
	for len(r.values) <= i {
		r.values = append(r.values, map[string]float64{})
	}
}

// begin opens a span as a child of the innermost open span. The heap
// statistics are read before the clock starts (and, in end, after it
// stops), so their cost falls outside the span.
func (r *Recorder) begin(name string) int {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{Parent: parent, Op: r.op, Name: name,
		Alloc: ms.TotalAlloc, Start: time.Since(r.epoch)})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *Recorder) end(id int) {
	end := time.Since(r.epoch)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &r.spans[id]
	s.End = end
	s.Alloc = ms.TotalAlloc - s.Alloc
	r.open = r.open[:len(r.open)-1]
}

// Do runs fn inside a span named name.
func (r *Recorder) Do(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	id := r.begin(name)
	defer r.end(id)
	fn()
}

// LiveHeap forces a collection inside a bench.gc span and records the
// live heap, in MB, as the op's sample named name.
func (r *Recorder) LiveHeap(name string) {
	if r == nil {
		return
	}
	r.Do("bench.gc", func() {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.values[r.op][name] = float64(ms.HeapAlloc) / 1e6
	})
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover. Children may nest or overlap each
// other (spans from concurrent callers); overlapping children are
// counted once, and child time outside the parent's interval is not
// counted at all.
func selfTimes(spans []Span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered time.Duration
		curLo, curHi := time.Duration(0), time.Duration(-1)
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfAllocs returns each span's allocation minus its children's.
func selfAllocs(spans []Span) []uint64 {
	self := make([]uint64, len(spans))
	for i, s := range spans {
		self[i] = s.Alloc
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= min(self[s.Parent], s.Alloc)
		}
	}
	return self
}

// writeChromeTrace writes the spans in the Chrome trace-event format
// (load the file in chrome://tracing or https://ui.perfetto.dev).
func writeChromeTrace(w io.Writer, spans []Span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op,
				"self_us": float64(self[i]) / 1e3, "alloc_bytes": s.Alloc},
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
