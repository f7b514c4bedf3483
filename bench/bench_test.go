package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// Every staged pipeline must produce exactly what its one-call entry
// point produces, traced or not, or the benchmark times something
// users never run.
func TestStagedPipelinesMatchEntryPoints(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.setup(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			seed := studySeed(w.name, 0)
			plain, err := r.op(nil, seed, core.MinScale)
			if err != nil {
				t.Fatal(err)
			}
			want, err := r.entry(seed, core.MinScale)
			if err != nil {
				t.Fatal(err)
			}
			if plain.entry != want {
				t.Errorf("staged pipeline digest %s, entry point %s", plain.entry, want)
			}
			rec := NewRecorder()
			rec.StartOp(0)
			traced, err := r.op(rec, seed, core.MinScale)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(plain, traced) {
				t.Errorf("traced op differs from untraced op:\n%+v\n%+v", plain, traced)
			}
		})
	}
}

func TestStudySeedStable(t *testing.T) {
	// Reference values from an independent implementation of
	// FNV-1a + SplitMix64; changing them changes every workload's inputs.
	for _, c := range []struct {
		key  string
		i    int
		want uint64
	}{
		{"nas-trace", 0, 374496543},
		{"nas-trace", 1, 288171091},
		{"predict-nas", 0, 2586054311},
		{"warm-up/nas-trace", 0, 3099547103},
		{"machines-sweep", 2, 1421585454},
	} {
		if got := studySeed(c.key, c.i); got != c.want {
			t.Errorf("studySeed(%q, %d) = %d, want %d", c.key, c.i, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{Parent: -1, Start: 0, End: 100 * ms, Alloc: 100},
		{Parent: 0, Start: 10 * ms, End: 30 * ms, Alloc: 30}, // overlaps span 2
		{Parent: 0, Start: 20 * ms, End: 50 * ms, Alloc: 20},
		{Parent: 1, Start: 12 * ms, End: 15 * ms, Alloc: 5}, // nested
		{Parent: -1, Start: 200 * ms, End: 210 * ms},
		{Parent: 4, Start: 205 * ms, End: 220 * ms}, // outlives its parent
		{Parent: 4, Start: 201 * ms, End: 203 * ms}, // recorded out of order
	}
	want := []time.Duration{60 * ms, 17 * ms, 30 * ms, 3 * ms, 3 * ms, 15 * ms, 2 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got, want := selfAllocs(spans), []uint64{50, 25, 20, 5, 0, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfAllocs = %v, want %v", got, want)
	}

	// Sequential, properly nested spans: self times add up to the root.
	rec := NewRecorder()
	rec.StartOp(0)
	rec.Do("op", func() {
		rec.Do("a", func() { time.Sleep(ms) })
		rec.Do("b", func() { rec.Do("c", func() { time.Sleep(ms) }) })
	})
	var sum time.Duration
	for _, d := range selfTimes(rec.spans) {
		sum += d
	}
	if root := rec.spans[0].End - rec.spans[0].Start; sum != root {
		t.Errorf("self times sum to %v, root span lasts %v", sum, root)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3.
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5}, 5, 5},
	} {
		if q1, q3 := quartiles(c.in); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdicts(t *testing.T) {
	tight := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	scaled := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	wide := []float64{0.7, 1.0, 1.3, 0.8, 1.2, 1.0}
	for _, c := range []struct {
		name       string
		base, head []float64
		lower      bool
		want       string
	}{
		{"identical", tight, tight, true, verdictSame},
		{"slower past the bound", tight, scaled(tight, 1.2), true, verdictWorse},
		{"slower within the bound", tight, scaled(tight, 1.05), true, verdictSame},
		{"faster beyond the spread", tight, scaled(tight, 0.9), true, verdictBetter},
		{"spread wider than the bound", wide, scaled(wide, 1.05), true, verdictUnresolved},
		{"wide but every run slower", wide, scaled(wide, 2), true, verdictWorse},
		{"wide but every run faster", wide, scaled(wide, 0.3), true, verdictBetter},
		{"throughput dropped", tight, scaled(tight, 0.8), false, verdictWorse},
		{"throughput rose", tight, scaled(tight, 1.2), false, verdictBetter},
	} {
		if got, _ := verdict(c.base, c.head, c.lower, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	spec := &benchSpec{
		Workloads: []declaredWorkload{{Name: "w"}},
		EndToEnd:  []declaredMetric{{Name: "op_s_p50", Unit: "s", Better: "lower", Bound: 0.1}},
	}
	side := func(op float64, commit string, counter float64) *resultsFile {
		rf := &resultsFile{}
		for i := 0; i < 3; i++ {
			rf.Runs = append(rf.Runs, runRecord{Workload: "w", Env: envInfo{NumCPU: 2, Commit: commit},
				Metrics: map[string]metricValue{"op_s_p50": {op * (1 + 0.01*float64(i)), "s"}}})
		}
		rf.Runs = append(rf.Runs, runRecord{Workload: "w", Seed: 1, Trace: true,
			Metrics: map[string]metricValue{"disk.ops": {counter, "count"}}})
		return rf
	}
	var out, errs bytes.Buffer
	if status := compareResults(spec, side(1, "a", 5), side(1, "b", 5), &out, &errs); status != 0 {
		t.Errorf("same code compared worse (status %d):\n%s", status, out.String())
	}
	if errs.Len() != 0 {
		t.Errorf("environments differing only by commit warned: %s", errs.String())
	}
	out.Reset()
	if status := compareResults(spec, side(1, "a", 5), side(1.5, "b", 6), &out, &errs); status != 1 {
		t.Errorf("a 50%% slower head compared with status %d:\n%s", status, out.String())
	}
	if !strings.Contains(out.String(), "disk.ops") {
		t.Errorf("changed simulated counter not reported:\n%s", out.String())
	}
}

// The declaration must stay within the limits of its format, and the program
// must emit exactly the metrics it declares, with the declared units.
func TestBenchmarkDeclaration(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	var declared []string
	for _, w := range spec.Workloads {
		checkName(w.Name)
		declared = append(declared, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !reflect.DeepEqual(declared, defined) {
		t.Errorf("declared workloads %v, program runs %v", declared, defined)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	maxBound := 0.0
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range append(append([]declaredMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		checkName(m.Name)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	setup := declaredMetric{}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" || setup.Bound != maxBound {
		t.Errorf("setup_s must be declared in s, lower is better, with the largest bound: %+v", setup)
	}

	w, err := lookupWorkload("predict-nas")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		traced bool
		want   []declaredMetric
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		out := t.TempDir()
		rr, err := runWorkload(w, options{seed: 3, traced: c.traced, out: out, scale: core.MinScale}, os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Correct || rr.Failed != 0 || rr.Attempted < 2 {
			t.Errorf("trace=%v: correct %v, %d of %d failed", c.traced, rr.Correct, rr.Failed, rr.Attempted)
		}
		want := map[string]string{}
		for _, m := range c.want {
			want[m.Name] = m.Unit
		}
		got := map[string]string{}
		for name, m := range rr.Metrics {
			got[name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace=%v: emitted metrics differ from the declaration:\n%s", c.traced, mapDiff(got, want))
		}

		var buf bytes.Buffer
		printRun(&buf, rr)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range last {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("summary line keys %v", keys)
		}
	}
}

func mapDiff(got, want map[string]string) string {
	var b strings.Builder
	for k, v := range got {
		if want[k] != v {
			b.WriteString("  emitted " + k + " (" + v + "), declared (" + want[k] + ")\n")
		}
	}
	for k, v := range want {
		if _, ok := got[k]; !ok {
			b.WriteString("  declared " + k + " (" + v + "), not emitted\n")
		}
	}
	return b.String()
}
