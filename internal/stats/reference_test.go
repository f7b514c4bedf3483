package stats

import (
	"math"
	"slices"
	"sort"
)

// refCDF is the CDF as it stood before it coalesced samples on
// arrival, kept as the oracle for TestCDFMatchesReference: one
// weighted entry per Add or AddN call, sorted and coalesced only at
// the first query after a mutation. Its answers for finite samples
// are the contract the compacting CDF must keep exactly.
type refCDF struct {
	entries []wsample
	cum     []int64
	total   int64
	sorted  bool
}

func (c *refCDF) Add(v float64) {
	c.entries = append(c.entries, wsample{v: v, n: 1})
	c.total++
	c.sorted = false
}

func (c *refCDF) AddN(v float64, n int) {
	if n <= 0 {
		return
	}
	c.entries = append(c.entries, wsample{v: v, n: int64(n)})
	c.total += int64(n)
	c.sorted = false
}

func (c *refCDF) Len() int { return int(c.total) }

func (c *refCDF) sortSamples() {
	if c.sorted {
		return
	}
	es := c.entries
	slices.SortFunc(es, func(a, b wsample) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
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

func (c *refCDF) At(x float64) float64 {
	if c.total == 0 {
		return 0
	}
	c.sortSamples()
	i := sort.Search(len(c.entries), func(i int) bool { return c.entries[i].v > x })
	if i == 0 {
		return 0
	}
	return float64(c.cum[i-1]) / float64(c.total)
}

func (c *refCDF) Quantile(q float64) float64 {
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
	target := q * float64(c.total)
	i := sort.Search(len(c.cum), func(i int) bool { return float64(c.cum[i]) >= target })
	if i == len(c.entries) {
		i = len(c.entries) - 1
	}
	return c.entries[i].v
}

func (c *refCDF) Min() float64 {
	if c.total == 0 {
		return 0
	}
	c.sortSamples()
	return c.entries[0].v
}

func (c *refCDF) Max() float64 {
	if c.total == 0 {
		return 0
	}
	c.sortSamples()
	return c.entries[len(c.entries)-1].v
}

func (c *refCDF) Mean() float64 {
	if c.total == 0 {
		return 0
	}
	var sum float64
	for _, e := range c.entries {
		sum += e.v * float64(e.n)
	}
	return sum / float64(c.total)
}

func (c *refCDF) Steps() []Point {
	c.sortSamples()
	pts := make([]Point, len(c.entries))
	n := float64(c.total)
	for i, e := range c.entries {
		pts[i] = Point{X: e.v, F: float64(c.cum[i]) / n}
	}
	return pts
}
