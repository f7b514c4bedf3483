package cache

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// accessStream returns a fixed block stream with the shape an I/O node
// sees: half the accesses revisit a shared hot set of 1024 blocks over
// 4 files, half stream through 64 cold files. The hot set overflows a
// 768-buffer cache and fits in 2500, and the cold files overflow every
// size, so each size below mixes hits, misses and evictions.
func accessStream() []BlockID {
	rng := rand.New(rand.NewPCG(1, 2))
	ids := make([]BlockID, 1<<16)
	for i := range ids {
		if rng.IntN(2) == 0 {
			ids[i] = BlockID{File: uint64(rng.IntN(4)), Block: int64(rng.IntN(256))}
		} else {
			ids[i] = BlockID{File: 100 + uint64(rng.IntN(64)), Block: int64(rng.IntN(4096))}
		}
	}
	return ids
}

// BenchmarkAccess measures one Access per policy at the simulated I/O
// node's cache size (768 buffers), at the largest per-node size of the
// Figure 9 sweep (25000 buffers over 10 I/O nodes), and at the
// cluster2026 machine's per-node cache (4096 buffers). The cache is
// warmed to capacity first, so the loop is steady-state
// lookup/evict/insert churn.
func BenchmarkAccess(b *testing.B) {
	ids := accessStream()
	policies := []func(int) Cache{
		func(n int) Cache { return NewLRU(n) },
		func(n int) Cache { return NewFIFO(n) },
		func(n int) Cache { return NewClock(n) },
		func(n int) Cache { return NewSLRU(n) },
	}
	for _, size := range []int{768, 2500, 4096} {
		for _, mk := range policies {
			c := mk(size)
			b.Run(fmt.Sprintf("%s/%d", c.Name(), size), func(b *testing.B) {
				for _, id := range ids {
					c.Access(id)
				}
				before := c.Stats()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Access(ids[i&(len(ids)-1)])
				}
				b.StopTimer()
				st := c.Stats()
				b.ReportMetric(float64(st.Hits-before.Hits)/float64(st.Accesses-before.Accesses), "hits/access")
			})
		}
	}
}

// BenchmarkStack measures one Stack.Access over the same fixed stream,
// after a warm-up pass, so the loop is steady-state distance queries
// over ~5000 distinct blocks. The stream has no immediate repeats, so
// every access takes the Fenwick-tree path.
func BenchmarkStack(b *testing.B) {
	ids := accessStream()
	s := NewStack(1 << 20)
	for _, id := range ids {
		s.Access(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(ids[i&(len(ids)-1)])
	}
}
