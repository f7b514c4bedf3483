package stats

import (
	"cmp"
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

// minCompact is the entry count below which a CDF never compacts.
const minCompact = 64

// CDF is an empirical cumulative distribution function over float64
// samples. Samples are kept as weighted (value, count) entries that
// coalesce as they arrive: a repeat of the last value adds to its
// count, and once the entries double since the last compaction they
// are sorted by value and equal values merged, in place. So a CDF's
// memory follows the distinct values it has seen, not its samples,
// AddN costs amortized O(log distinct), and every answer for finite
// samples is the one sorting every sample would give. At the first
// query after a mutation the entries are compacted and prefix-summed.
//
// NaN sorts below every number, as cmp.Compare orders it, and equals
// no sample, NaN included: each Add or AddN of NaN keeps an entry of
// its own. So At counts NaN samples at or below every x, Min is NaN
// once any sample is, Quantile answers NaN at every rank a NaN holds,
// and Steps begins with one point per NaN entry, in no set order.
// The zero value is ready to use.
type CDF struct {
	entries []wsample
	cum     []int64 // cum[i] = total count of entries[0..i], valid when sorted
	total   int64
	limit   int // compact when the entries reach this count
	sorted  bool
}

// Add adds one sample.
func (c *CDF) Add(v float64) { c.AddN(v, 1) }

// AddN adds the sample v with multiplicity n. Non-positive
// multiplicities add nothing.
func (c *CDF) AddN(v float64, n int) {
	if n <= 0 {
		return
	}
	c.total += int64(n)
	c.sorted = false
	if k := len(c.entries); k > 0 && c.entries[k-1].v == v {
		c.entries[k-1].n += int64(n)
		return
	}
	if len(c.entries) >= c.limit {
		c.compact()
	}
	c.entries = append(c.entries, wsample{v: v, n: int64(n)})
}

// Len reports the number of samples (counting multiplicity).
func (c *CDF) Len() int { return int(c.total) }

// compact sorts the entries by value and merges equal values in
// place, then lets the entries double before the next compaction.
func (c *CDF) compact() {
	es := c.entries
	slices.SortFunc(es, func(a, b wsample) int { return cmp.Compare(a.v, b.v) })
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
	c.limit = max(2*out, minCompact)
}

// sortSamples compacts the entries and rebuilds the cumulative-count
// table.
func (c *CDF) sortSamples() {
	if c.sorted {
		return
	}
	c.compact()
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
