package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json, the benchmark's
// declaration, that the program reads.
type benchSpec struct {
	Workloads []declaredWorkload `json:"workloads"`
	EndToEnd  []declaredMetric   `json:"end_to_end"`
	PerLayer  []declaredMetric   `json:"per_layer"`
}

type declaredWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares head's runs of one metric against base's. worse is
// head's median change in the metric's bad direction, as a share of
// base's median. A spread (quartile distance over median, on either
// side) wider than the bound leaves the comparison unresolved unless
// every head run beats, or loses to, every base run. Otherwise head is
// worse past the bound, better when it gains more than base's own
// spread, and the same in between.
func verdict(base, head []float64, lowerIsBetter bool, bound float64) (v string, worse float64) {
	mb, mh := median(base), median(head)
	if mb != 0 {
		worse = (mh - mb) / mb
	}
	if !lowerIsBetter {
		worse = -worse
	}
	spreadOf := func(vals []float64, m float64) float64 {
		q1, q3 := quartiles(vals)
		return ratio(q3-q1, m)
	}
	baseSpread := spreadOf(base, mb)
	spread := max(baseSpread, spreadOf(head, mh))
	bMin, bMax := minMax(base)
	hMin, hMax := minMax(head)
	headWins, headLoses := hMax < bMin, hMin > bMax
	if !lowerIsBetter {
		headWins, headLoses = hMin > bMax, hMax < bMin
	}
	switch {
	case spread > bound && !headWins && !headLoses:
		return verdictUnresolved, worse
	case worse > bound:
		return verdictWorse, worse
	case -worse > baseSpread:
		return verdictBetter, worse
	}
	return verdictSame, worse
}

func minMax(v []float64) (lo, hi float64) {
	s := sorted(v)
	return s[0], s[len(s)-1]
}

// runCompare prints one verdict row per workload and end-to-end metric
// for the untraced runs of two results files, and one row per
// simulated counter that differs between the traced runs of a
// workload. It exits non-zero when any metric is worse.
func runCompare(specPath, basePath, headPath string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var sides [2]*resultsFile
	for i, path := range []string{basePath, headPath} {
		if sides[i], err = readResults(path); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	return compareResults(spec, sides[0], sides[1], stdout, stderr)
}

func compareResults(spec *benchSpec, base, head *resultsFile, stdout, stderr io.Writer) int {
	if eb, eh := envsOf(base), envsOf(head); fmt.Sprint(eb) != fmt.Sprint(eh) {
		fmt.Fprintf(stderr, "bench: warning: the two sides ran in different environments\n  base: %v\n  head: %v\n", eb, eh)
	}
	status := 0
	fmt.Fprintf(stdout, "%-18s %-16s %26s %26s %8s %6s  %s\n",
		"workload", "metric", "base p50 [q1, q3] n", "head p50 [q1, q3] n", "change", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			bv, hv := untracedValues(base, w.Name, m.Name), untracedValues(head, w.Name, m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			v, worse := verdict(bv, hv, m.Better == "lower", m.Bound)
			fmt.Fprintf(stdout, "%-18s %-16s %26s %26s %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, summary(bv), summary(hv), 100*worse, 100*m.Bound, v)
			if v == verdictWorse {
				status = 1
			}
		}
	}
	for _, d := range counterDiffs(base, head) {
		fmt.Fprintln(stdout, d)
	}
	return status
}

func summary(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", median(v), q1, q3, len(v))
}

func untracedValues(rf *resultsFile, workload, metric string) []float64 {
	var vals []float64
	for _, r := range rf.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// envsOf lists the distinct environments of a results file, leaving
// out the commit, which is expected to differ between the sides.
func envsOf(rf *resultsFile) []envInfo {
	seen := map[envInfo]bool{}
	var out []envInfo
	for _, r := range rf.Runs {
		e := r.Env
		e.Commit = ""
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

// counterDiffs reports simulated counters that differ between the
// traced runs of a workload on the two sides. Every traced run of a
// workload measures the same study pool, so its counters repeat
// exactly whatever the seed.
func counterDiffs(base, head *resultsFile) []string {
	traced := map[string]runRecord{}
	for _, r := range base.Runs {
		if r.Trace {
			traced[r.Workload] = r
		}
	}
	var out []string
	for _, h := range head.Runs {
		b, ok := traced[h.Workload]
		if !h.Trace || !ok {
			continue
		}
		for _, c := range simulated {
			if bv, hv := b.Metrics[c.name].Value, h.Metrics[c.name].Value; bv != hv {
				out = append(out, fmt.Sprintf("%-18s %-16s counter changed: %v -> %v", h.Workload, c.name, bv, hv))
			}
		}
	}
	return out
}
