package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// wsample is one weighted sample: the value v observed n times.
type wsample struct {
	v float64
	n int64
}

// CDF is an empirical cumulative distribution function over float64
// samples. Samples are stored as weighted (value, count) pairs, so
// adding a value with large multiplicity (AddN) is O(1) rather than
// O(n); on the first query after a mutation the pairs are sorted by
// value, coalesced, and prefix-summed. The zero value is ready to use.
type CDF struct {
	entries []wsample
	cum     []int64 // cum[i] = total count of entries[0..i], valid when sorted
	total   int64
	sorted  bool
}

// Add appends one sample.
func (c *CDF) Add(v float64) {
	c.entries = append(c.entries, wsample{v: v, n: 1})
	c.total++
	c.sorted = false
}

// AddN appends the sample v with multiplicity n in constant time.
// Non-positive multiplicities add nothing.
func (c *CDF) AddN(v float64, n int) {
	if n <= 0 {
		return
	}
	c.entries = append(c.entries, wsample{v: v, n: int64(n)})
	c.total += int64(n)
	c.sorted = false
}

// Len reports the number of samples (counting multiplicity).
func (c *CDF) Len() int { return int(c.total) }

// Reset empties the CDF while keeping its backing arrays, so a pooled
// CDF (see analysis.Scratch) accumulates the next study's samples
// without reallocating.
func (c *CDF) Reset() {
	c.entries = c.entries[:0]
	c.cum = c.cum[:0]
	c.total = 0
	c.sorted = false
}

// sortSamples sorts entries by value, merges duplicates, and rebuilds
// the cumulative-count table.
func (c *CDF) sortSamples() {
	if c.sorted {
		return
	}
	es := c.entries
	slices.SortFunc(es, func(a, b wsample) int {
		// Built from < and >, not cmp.Compare, which orders NaN below
		// every value: a NaN sample keeps the position a plain
		// a.v < b.v sort gives it, so no report changes.
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	// Coalesce runs of equal values in place.
	out := 0
	for i := 0; i < len(es); {
		v, n := es[i].v, es[i].n
		for i++; i < len(es) && es[i].v == v; i++ {
			n += es[i].n
		}
		es[out] = wsample{v: v, n: n}
		out++
	}
	c.entries = es[:out]
	c.cum = c.cum[:0]
	var run int64
	for _, e := range c.entries {
		run += e.n
		c.cum = append(c.cum, run)
	}
	c.sorted = true
}

// At returns the fraction of samples <= x, i.e. CDF(x).
// It returns 0 for an empty CDF.
func (c *CDF) At(x float64) float64 {
	if c.total == 0 {
		return 0
	}
	c.sortSamples()
	// First entry with value > x; everything before it is <= x.
	i := sort.Search(len(c.entries), func(i int) bool { return c.entries[i].v > x })
	if i == 0 {
		return 0
	}
	return float64(c.cum[i-1]) / float64(c.total)
}

// Quantile returns the smallest sample v such that CDF(v) >= q,
// for q in (0, 1]. Quantile(0) returns the minimum sample, and a NaN
// q yields NaN. It returns 0 for an empty CDF.
func (c *CDF) Quantile(q float64) float64 {
	if math.IsNaN(q) {
		return math.NaN()
	}
	if c.total == 0 {
		return 0
	}
	c.sortSamples()
	if q <= 0 {
		return c.entries[0].v
	}
	if q >= 1 {
		return c.entries[len(c.entries)-1].v
	}
	// The answer is the first entry whose cumulative fraction reaches
	// q: cum[i]/total >= q, compared cross-multiplied so no rounding
	// fudge is needed (both sides are exact for totals < 2^53).
	target := q * float64(c.total)
	i := sort.Search(len(c.cum), func(i int) bool { return float64(c.cum[i]) >= target })
	if i == len(c.entries) {
		i = len(c.entries) - 1
	}
	return c.entries[i].v
}

// Min returns the smallest sample, or 0 if empty.
func (c *CDF) Min() float64 {
	if c.total == 0 {
		return 0
	}
	c.sortSamples()
	return c.entries[0].v
}

// Max returns the largest sample, or 0 if empty.
func (c *CDF) Max() float64 {
	if c.total == 0 {
		return 0
	}
	c.sortSamples()
	return c.entries[len(c.entries)-1].v
}

// Mean returns the arithmetic mean of the samples, or 0 if empty.
func (c *CDF) Mean() float64 {
	if c.total == 0 {
		return 0
	}
	var sum float64
	for _, e := range c.entries {
		sum += e.v * float64(e.n)
	}
	return sum / float64(c.total)
}

// Point is one (X, F) pair of a rendered CDF curve: F is the fraction
// of samples <= X.
type Point struct {
	X float64
	F float64
}

// Curve renders the CDF at the given x positions.
func (c *CDF) Curve(xs []float64) []Point {
	pts := make([]Point, len(xs))
	for i, x := range xs {
		pts[i] = Point{X: x, F: c.At(x)}
	}
	return pts
}

// Steps returns the full empirical step curve: one point per distinct
// sample value, in increasing order.
func (c *CDF) Steps() []Point {
	c.sortSamples()
	pts := make([]Point, len(c.entries))
	n := float64(c.total)
	for i, e := range c.entries {
		pts[i] = Point{X: e.v, F: float64(c.cum[i]) / n}
	}
	return pts
}

// LogTicks returns positions 10^lo, 2*10^lo, 5*10^lo, ... up to 10^hi,
// the customary tick marks for the paper's log-scale CDF plots.
func LogTicks(lo, hi int) []float64 {
	var ticks []float64
	for e := lo; e <= hi; e++ {
		base := pow10(e)
		ticks = append(ticks, base)
		if e < hi {
			ticks = append(ticks, 2*base, 5*base)
		}
	}
	return ticks
}

func pow10(e int) float64 {
	v := 1.0
	for i := 0; i < e; i++ {
		v *= 10
	}
	for i := 0; i > e; i-- {
		v /= 10
	}
	return v
}

// FormatCurve renders points as an aligned two-column table for report
// output, e.g. the rows behind the paper's CDF figures.
func FormatCurve(xlabel string, pts []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%15s  %8s\n", xlabel, "CDF")
	for _, p := range pts {
		fmt.Fprintf(&b, "%15.0f  %8.4f\n", p.X, p.F)
	}
	return b.String()
}
