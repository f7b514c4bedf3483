package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Hist is an integer-valued histogram: it counts occurrences of int64
// keys. The zero value is ready to use.
type Hist struct {
	counts map[int64]int64
	total  int64
}

// Add increments the count for key k.
func (h *Hist) Add(k int64) { h.AddN(k, 1) }

// AddN increments the count for key k by n.
func (h *Hist) AddN(k int64, n int64) {
	if h.counts == nil {
		h.counts = make(map[int64]int64)
	}
	h.counts[k] += n
	h.total += n
}

// Count returns the count recorded for key k.
func (h *Hist) Count(k int64) int64 { return h.counts[k] }

// Total returns the sum of all counts.
func (h *Hist) Total() int64 { return h.total }

// Distinct returns the number of distinct keys with non-zero counts.
func (h *Hist) Distinct() int {
	n := 0
	for _, c := range h.counts {
		if c != 0 {
			n++
		}
	}
	return n
}

// Keys returns the recorded keys in increasing order.
func (h *Hist) Keys() []int64 {
	keys := make([]int64, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Fraction returns the fraction of all counts recorded for key k.
func (h *Hist) Fraction(k int64) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[k]) / float64(h.total)
}

// Bucketed groups the histogram into labeled buckets. The boundaries
// slice gives the inclusive upper edge of each bucket but the last,
// which is open ("5+" style). Returned counts have len(boundaries)+1
// entries.
func (h *Hist) Bucketed(boundaries []int64) []int64 {
	out := make([]int64, len(boundaries)+1)
	for k, c := range h.counts {
		placed := false
		for i, b := range boundaries {
			if k <= b {
				out[i] += c
				placed = true
				break
			}
		}
		if !placed {
			out[len(boundaries)] += c
		}
	}
	return out
}

// Format renders the histogram as an aligned table.
func (h *Hist) Format(keyLabel string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%15s  %10s  %8s\n", keyLabel, "count", "percent")
	for _, k := range h.Keys() {
		fmt.Fprintf(&b, "%15d  %10d  %7.1f%%\n", k, h.counts[k], 100*h.Fraction(k))
	}
	return b.String()
}

// Summary holds the moments and extremes of a stream of float64
// observations, accumulated online.
type Summary struct {
	n          int64
	sum, sumSq float64
	min, max   float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumSq += v * v
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Var returns the population variance, or 0 with fewer than two
// observations.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.n) - m*m
	if v < 0 {
		return 0 // guard against floating-point cancellation
	}
	return v
}

// Stddev returns the population standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation, or 0 with none.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with none.
func (s *Summary) Max() float64 { return s.max }

// String renders a one-line summary.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f stddev=%.2f min=%.2f max=%.2f",
		s.n, s.Mean(), s.Stddev(), s.min, s.max)
}
