package main

import (
	"hash/fnv"
	"sort"
)

// splitmix64 is one step of the SplitMix64 generator: a bijective
// mixer, so distinct inputs give distinct, well-spread outputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// studySeed derives the i-th study seed of a stream named by key (a
// workload's pool, or its warm-up). Seeds are kept to 32 bits so they
// read well in scenario labels and logs.
func studySeed(key string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return splitmix64(splitmix64(h.Sum64())+uint64(i)) >> 32
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the same rule as
// Python's statistics.quantiles(values, n=4) (the default "exclusive"
// method), so spreads computed here match the ones the benchmark's
// acceptance rule is stated in. One value is its own quartiles.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), q(3)
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
