package cache

import (
	"testing"
	"testing/quick"
)

func id(f uint64, b int64) BlockID { return BlockID{File: f, Block: b} }

func TestLRUBasicHitMiss(t *testing.T) {
	c := NewLRU(2)
	if c.Access(id(1, 0)) {
		t.Fatal("first access hit")
	}
	if !c.Access(id(1, 0)) {
		t.Fatal("second access missed")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", st.HitRate())
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := NewLRU(2)
	c.Access(id(1, 0))
	c.Access(id(1, 1))
	c.Access(id(1, 0)) // refresh block 0
	c.Access(id(1, 2)) // evicts block 1
	if !c.Contains(id(1, 0)) {
		t.Fatal("refreshed block evicted")
	}
	if c.Contains(id(1, 1)) {
		t.Fatal("LRU victim still resident")
	}
}

func TestFIFOIgnoresRecency(t *testing.T) {
	c := NewFIFO(2)
	c.Access(id(1, 0))
	c.Access(id(1, 1))
	c.Access(id(1, 0)) // hit, but does NOT refresh
	c.Access(id(1, 2)) // evicts block 0 (oldest arrival)
	if c.Contains(id(1, 0)) {
		t.Fatal("FIFO kept the oldest arrival despite recency")
	}
	if !c.Contains(id(1, 1)) {
		t.Fatal("FIFO evicted the wrong block")
	}
}

func TestLRUBeatsFIFOOnLoopWithRefresh(t *testing.T) {
	// A hot block re-touched between streams of cold blocks: LRU
	// retains it, FIFO ages it out. This is the qualitative
	// difference behind the paper's Figure 9.
	lru, fifo := NewLRU(4), NewFIFO(4)
	run := func(c Cache) float64 {
		cold := int64(100)
		for i := 0; i < 200; i++ {
			c.Access(id(1, 0)) // hot block
			c.Access(id(1, cold))
			cold++
		}
		return c.Stats().HitRate()
	}
	lruRate, fifoRate := run(lru), run(fifo)
	if lruRate <= fifoRate {
		t.Fatalf("LRU %v should beat FIFO %v on hot-block workload", lruRate, fifoRate)
	}
}

func TestInvalidate(t *testing.T) {
	for _, c := range []Cache{NewLRU(4), NewFIFO(4), NewClock(4), NewSLRU(4)} {
		c.Access(id(1, 0))
		c.Invalidate(id(1, 0))
		if c.Contains(id(1, 0)) {
			t.Fatalf("%s: invalidated block still resident", c.Name())
		}
		c.Invalidate(id(9, 9)) // absent: must not panic
	}
}

func TestContainsHasNoSideEffects(t *testing.T) {
	c := NewLRU(1)
	c.Access(id(1, 0))
	before := c.Stats()
	c.Contains(id(1, 0))
	c.Contains(id(2, 0))
	if c.Stats() != before {
		t.Fatal("Contains changed stats")
	}
}

func TestCapacityRespected(t *testing.T) {
	for _, c := range []Cache{NewLRU(3), NewFIFO(3), NewClock(3), NewSLRU(3)} {
		for b := int64(0); b < 100; b++ {
			c.Access(id(1, b))
		}
		if c.Len() != 3 {
			t.Fatalf("%s: len = %d, want 3", c.Name(), c.Len())
		}
		if c.Capacity() != 3 {
			t.Fatalf("%s: capacity = %d", c.Name(), c.Capacity())
		}
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	for _, mk := range []func(){
		func() { NewLRU(0) },
		func() { NewFIFO(0) },
		func() { NewClock(0) },
		func() { NewSLRU(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("zero capacity did not panic")
				}
			}()
			mk()
		}()
	}
}

func TestNames(t *testing.T) {
	if NewLRU(1).Name() != "LRU" || NewFIFO(1).Name() != "FIFO" || NewClock(1).Name() != "Clock" || NewSLRU(1).Name() != "SLRU" {
		t.Fatal("policy names wrong")
	}
}

func TestHitRateEmpty(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty stats hit rate should be 0")
	}
}

// Property: occupancy never exceeds capacity, hits never exceed
// accesses, and Access(x) directly after Access(x) always hits.
func TestQuickCacheInvariants(t *testing.T) {
	f := func(capRaw uint8, ops []uint16) bool {
		capacity := int(capRaw%32) + 1
		for _, c := range []Cache{NewLRU(capacity), NewFIFO(capacity), NewClock(capacity), NewSLRU(capacity)} {
			for _, op := range ops {
				bid := id(uint64(op%4), int64(op/4%64))
				c.Access(bid)
				if !c.Contains(bid) {
					return false // just-accessed block must be resident
				}
				if c.Len() > capacity {
					return false
				}
			}
			st := c.Stats()
			if st.Hits > st.Accesses || st.Accesses != int64(len(ops)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with capacity >= distinct blocks, every repeat access hits
// (no spurious evictions) for every policy.
func TestQuickNoSpuriousEvictions(t *testing.T) {
	f := func(ops []uint8) bool {
		distinct := make(map[BlockID]bool)
		for _, op := range ops {
			distinct[id(0, int64(op%16))] = true
		}
		capacity := len(distinct)
		if capacity == 0 {
			return true
		}
		for _, c := range []Cache{NewLRU(capacity), NewFIFO(capacity), NewClock(capacity), NewSLRU(capacity)} {
			seen := make(map[BlockID]bool)
			for _, op := range ops {
				bid := id(0, int64(op%16))
				hit := c.Access(bid)
				if seen[bid] && !hit {
					return false
				}
				seen[bid] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
