package cache

import (
	"fmt"
	"testing"
)

func TestClockBasicHitMiss(t *testing.T) {
	c := NewClock(2)
	if c.Access(id(1, 0)) {
		t.Fatal("cold access hit")
	}
	if !c.Access(id(1, 0)) {
		t.Fatal("warm access missed")
	}
	if !c.Contains(id(1, 0)) || c.Contains(id(1, 1)) {
		t.Fatal("Contains wrong")
	}
	if c.Len() != 1 || c.Capacity() != 2 {
		t.Fatalf("len=%d cap=%d", c.Len(), c.Capacity())
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 {
		t.Fatalf("stats %+v", s)
	}
	if c.Name() != "Clock" {
		t.Fatalf("name %q", c.Name())
	}
}

func TestClockSecondChance(t *testing.T) {
	// Fill a 2-slot clock with A, B; touch A (sets its ref bit); insert
	// C. The sweep must skip A (second chance) and evict B.
	c := NewClock(2)
	a, b, x := id(1, 0), id(1, 1), id(1, 2)
	c.Access(a)
	c.Access(b)
	c.Access(a) // ref bit on A
	c.Access(x) // must evict B
	if !c.Contains(a) {
		t.Fatal("referenced block evicted")
	}
	if c.Contains(b) {
		t.Fatal("unreferenced block survived")
	}
	if !c.Contains(x) {
		t.Fatal("inserted block missing")
	}
}

func TestClockSweepWrapsWhenAllReferenced(t *testing.T) {
	// All ref bits set: the sweep must clear the whole ring, wrap, and
	// evict the slot it started at rather than spin forever.
	c := NewClock(3)
	for i := int64(0); i < 3; i++ {
		c.Access(id(1, i))
		c.Access(id(1, i)) // set every ref bit
	}
	c.Access(id(2, 0))
	if c.Len() != 3 {
		t.Fatalf("len=%d after wrap eviction", c.Len())
	}
	if !c.Contains(id(2, 0)) {
		t.Fatal("new block not resident after full sweep")
	}
}

func TestClockInvalidate(t *testing.T) {
	c := NewClock(2)
	c.Access(id(1, 0))
	c.Access(id(1, 1))
	c.Invalidate(id(1, 0))
	if c.Contains(id(1, 0)) || c.Len() != 1 {
		t.Fatalf("invalidate failed: len=%d", c.Len())
	}
	c.Invalidate(id(9, 9)) // absent: no-op
	// The tombstoned slot must be reusable without corrupting the
	// index, even when the zero BlockID is itself cached.
	c.Access(id(0, 0))
	c.Access(id(2, 2))
	c.Access(id(3, 3))
	if c.Len() > c.Capacity() {
		t.Fatalf("len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
}

func TestClockPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewClock(0)
}

func TestSLRUBasicHitMiss(t *testing.T) {
	c := NewSLRU(4)
	if c.Access(id(1, 0)) {
		t.Fatal("cold access hit")
	}
	if !c.Access(id(1, 0)) {
		t.Fatal("warm access missed")
	}
	if c.Name() != "SLRU" || c.Capacity() != 4 || c.Len() != 1 {
		t.Fatalf("name=%q cap=%d len=%d", c.Name(), c.Capacity(), c.Len())
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestSLRUScanResistance(t *testing.T) {
	// Promote a hot block, then stream a long scan through the cache:
	// the hot block must survive in the protected segment while plain
	// LRU of the same size would have evicted it.
	slru := NewSLRU(10)
	lru := NewLRU(10)
	hot := id(1, 0)
	for _, c := range []Cache{slru, lru} {
		c.Access(hot)
		c.Access(hot) // promotes in SLRU
		for i := int64(0); i < 100; i++ {
			c.Access(id(2, i))
		}
	}
	if !slru.Contains(hot) {
		t.Fatal("SLRU lost the protected block to a scan")
	}
	if lru.Contains(hot) {
		t.Fatal("test premise broken: LRU kept the block through the scan")
	}
}

func TestSLRUDemotionKeepsTotalBounded(t *testing.T) {
	c := NewSLRU(5) // protected capacity 4
	// Promote six distinct blocks: each promotion past the fourth must
	// demote the protected LRU rather than grow past capacity.
	for i := int64(0); i < 6; i++ {
		c.Access(id(1, i))
		c.Access(id(1, i))
		if c.Len() > c.Capacity() {
			t.Fatalf("len %d exceeds capacity %d", c.Len(), c.Capacity())
		}
	}
	if c.Len() != 5 {
		t.Fatalf("len=%d, want 5", c.Len())
	}
}

func TestSLRUCapacityOneDegeneratesToLRU(t *testing.T) {
	c := NewSLRU(1)
	c.Access(id(1, 0))
	if !c.Access(id(1, 0)) {
		t.Fatal("re-reference missed at capacity 1")
	}
	c.Access(id(1, 1))
	if c.Contains(id(1, 0)) || !c.Contains(id(1, 1)) || c.Len() != 1 {
		t.Fatal("capacity-1 SLRU did not behave like a single buffer")
	}
}

// TestSLRUInvalidate: Invalidate must unlink a block from the segment
// its slot's protected bit names, and a block re-admitted after
// invalidation starts over as probationary.
func TestSLRUInvalidate(t *testing.T) {
	c := NewSLRU(5) // protected capacity 4
	hot, cold := id(1, 0), id(1, 1)
	c.Access(hot)
	c.Access(hot)  // protected
	c.Access(cold) // probationary

	c.Invalidate(hot)
	if c.Contains(hot) || c.protLen != 0 || c.prot.front != -1 || c.probLen != 1 {
		t.Fatalf("invalidating the protected block: protLen=%d probLen=%d", c.protLen, c.probLen)
	}
	if c.Access(hot) {
		t.Fatal("invalidated block hit on re-access")
	}
	if pos, _ := c.index.find(hot, c.entries.ids); c.protected[c.index.slots[pos].val()] || c.probLen != 2 {
		t.Fatalf("re-admitted block protected=%v probLen=%d, want probationary", c.protected[c.index.slots[pos].val()], c.probLen)
	}
	c.Access(hot) // protected again

	c.Invalidate(cold)
	c.Invalidate(id(7, 7)) // absent: no-op
	if c.Contains(cold) || c.probLen != 0 || c.prob.front != -1 || c.protLen != 1 {
		t.Fatalf("invalidating the probationary block: protLen=%d probLen=%d", c.protLen, c.probLen)
	}
	// A scan now washes through the probationary segment only.
	for b := int64(0); b < 20; b++ {
		c.Access(id(2, b))
	}
	if !c.Contains(hot) || c.Len() != c.Capacity() {
		t.Fatalf("protected block lost to a scan after invalidations (len %d)", c.Len())
	}

	c.Invalidate(hot)
	for b := int64(0); b < 20; b++ {
		c.Invalidate(id(2, b))
	}
	if c.Len() != 0 {
		t.Fatalf("len=%d after invalidating everything", c.Len())
	}
	// The cache must still work after slot recycling.
	c.Access(id(3, 0))
	c.Access(id(3, 0))
	if !c.Contains(id(3, 0)) {
		t.Fatal("cache broken after invalidations")
	}
}

func TestSLRUPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSLRU(-1)
}

// TestPoliciesNeverExceedCapacity drives every policy with a mixed
// re-referencing workload and checks the shared invariants: occupancy
// never exceeds capacity, hits never exceed accesses, and a block just
// accessed is resident.
func TestPoliciesNeverExceedCapacity(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 64} {
		caches := []Cache{NewLRU(capacity), NewFIFO(capacity), NewClock(capacity), NewSLRU(capacity)}
		for _, c := range caches {
			t.Run(fmt.Sprintf("%s/%d", c.Name(), capacity), func(t *testing.T) {
				for i := 0; i < 500; i++ {
					b := id(uint64(i%3), int64(i*i%97))
					c.Access(b)
					if !c.Contains(b) {
						t.Fatalf("just-accessed block not resident at access %d", i)
					}
					if c.Len() > c.Capacity() {
						t.Fatalf("occupancy %d over capacity %d", c.Len(), c.Capacity())
					}
					if i%31 == 0 {
						c.Invalidate(id(uint64(i%3), int64((i+1)*(i+1)%97)))
					}
				}
				s := c.Stats()
				if s.Hits > s.Accesses || s.HitRate() < 0 || s.HitRate() > 1 {
					t.Fatalf("stats out of bounds: %+v", s)
				}
			})
		}
	}
}
