// Package cache implements the block-cache replacement policies used
// by the CFS I/O nodes and by the paper's trace-driven cache
// simulations: LRU, FIFO, Clock and segmented LRU, plus Stack, which
// measures the LRU stack distance of each access so one pass over a
// trace gives an LRU cache's hits at every size.
//
// Caches here track block identity only, not contents; the simulators
// and the CFS I/O node care about hit/miss behaviour and eviction
// order, never about data bytes.
//
// Every policy answers an immediate repeat of the block it touched
// last without probing its index, and only where the full lookup would
// leave the cache in the same state: most block accesses in a
// CHARISMA trace repeat the previous block at the same I/O node.
package cache

import "fmt"

// BlockID names one file-system block: a file identity plus a block
// index within the file.
type BlockID struct {
	File  uint64
	Block int64
}

// Stats counts cache traffic.
type Stats struct {
	Accesses int64
	Hits     int64
}

// HitRate returns hits/accesses, or 0 with no traffic.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is a fixed-capacity block cache.
type Cache interface {
	// Access looks up id, records the access, and on a miss inserts
	// id (evicting per policy). It reports whether the access hit.
	Access(id BlockID) bool
	// Contains reports whether id is resident, without side effects.
	Contains(id BlockID) bool
	// Invalidate drops id if resident (e.g. on file deletion).
	Invalidate(id BlockID)
	// Len and Capacity report occupancy.
	Len() int
	Capacity() int
	// Stats returns the traffic counters.
	Stats() Stats
	// Name identifies the policy ("LRU", "FIFO", ...).
	Name() string
}

// entry is one resident block in the slice-backed intrusive list
// shared by the LRU and FIFO implementations. Entries link by slot
// index rather than pointer, so a cache performs zero per-insertion
// allocations once its entry slice has grown to capacity: an eviction
// reuses the victim's slot in place.
type entry struct {
	id         BlockID
	prev, next int32 // slot indexes, -1 = end of list
}

// order is a doubly-linked list threaded through an entry slice.
// front is the most recent (LRU) or newest (FIFO) entry, back the
// eviction victim.
type order struct {
	entries     []entry
	front, back int32
	free        []int32 // slots vacated by Invalidate
}

func newOrder(capacity int) order {
	// Entries grow by append up to capacity, so short-lived caches
	// (e.g. one per job-node pair in the Figure 8 simulation) never
	// pay for capacity they do not use.
	return order{front: -1, back: -1, entries: make([]entry, 0, min(capacity, 1<<16))}
}

// alloc returns a slot for id, reusing a freed slot when available.
func (o *order) alloc(id BlockID) int32 {
	if n := len(o.free); n > 0 {
		i := o.free[n-1]
		o.free = o.free[:n-1]
		o.entries[i] = entry{id: id, prev: -1, next: -1}
		return i
	}
	o.entries = append(o.entries, entry{id: id, prev: -1, next: -1})
	return int32(len(o.entries) - 1)
}

func (o *order) pushFront(i int32) {
	e := &o.entries[i]
	e.prev = -1
	e.next = o.front
	if o.front >= 0 {
		o.entries[o.front].prev = i
	} else {
		o.back = i
	}
	o.front = i
}

func (o *order) unlink(i int32) {
	e := &o.entries[i]
	if e.prev >= 0 {
		o.entries[e.prev].next = e.next
	} else {
		o.front = e.next
	}
	if e.next >= 0 {
		o.entries[e.next].prev = e.prev
	} else {
		o.back = e.prev
	}
	e.prev, e.next = -1, -1
}

// LRU is a least-recently-used block cache.
type LRU struct {
	capacity int
	index    blockIndex
	order    order
	stats    Stats
}

// NewLRU returns an LRU cache holding up to capacity blocks.
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive LRU capacity %d", capacity))
	}
	return &LRU{
		capacity: capacity,
		index:    newBlockIndex(),
		order:    newOrder(capacity),
	}
}

// Access implements Cache.
func (c *LRU) Access(id BlockID) bool {
	c.stats.Accesses++
	if f := c.order.front; f >= 0 && c.order.entries[f].id == id {
		// A repeat of the most recent block: already at the front.
		c.stats.Hits++
		return true
	}
	if i, _, ok := c.index.get(id); ok {
		c.stats.Hits++
		if c.order.front != i {
			c.order.unlink(i)
			c.order.pushFront(i)
		}
		return true
	}
	if c.index.n >= c.capacity {
		victim := c.order.back
		c.order.unlink(victim)
		c.index.remove(c.order.entries[victim].id)
		c.order.entries[victim].id = id
		c.index.put(id, victim, false)
		c.order.pushFront(victim)
		return false
	}
	i := c.order.alloc(id)
	c.index.put(id, i, false)
	c.order.pushFront(i)
	return false
}

// Contains implements Cache.
func (c *LRU) Contains(id BlockID) bool { _, ok := c.index.lookup(id); return ok }

// Invalidate implements Cache.
func (c *LRU) Invalidate(id BlockID) {
	if i, _, ok := c.index.get(id); ok {
		c.order.unlink(i)
		c.order.free = append(c.order.free, i)
		c.index.remove(id)
	}
}

// Len implements Cache.
func (c *LRU) Len() int { return c.index.n }

// Capacity implements Cache.
func (c *LRU) Capacity() int { return c.capacity }

// Stats implements Cache.
func (c *LRU) Stats() Stats { return c.stats }

// Name implements Cache.
func (c *LRU) Name() string { return "LRU" }

// FIFO is a first-in-first-out block cache: hits do not refresh an
// entry's position, so a resident block is evicted a fixed number of
// insertions after it arrived. The paper shows this costs a factor of
// ~5 in required cache size at the I/O nodes.
type FIFO struct {
	capacity int
	index    blockIndex
	order    order // front = newest arrival
	last     int32 // slot of the block accessed last, -1 = none
	stats    Stats
}

// NewFIFO returns a FIFO cache holding up to capacity blocks.
func NewFIFO(capacity int) *FIFO {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive FIFO capacity %d", capacity))
	}
	return &FIFO{
		capacity: capacity,
		index:    newBlockIndex(),
		order:    newOrder(capacity),
		last:     -1,
	}
}

// Access implements Cache. A hit changes nothing, so a repeat of the
// last block is answered from its remembered slot.
func (c *FIFO) Access(id BlockID) bool {
	c.stats.Accesses++
	if c.last >= 0 && c.order.entries[c.last].id == id {
		c.stats.Hits++
		return true
	}
	if i, _, ok := c.index.get(id); ok {
		c.stats.Hits++
		c.last = i
		return true
	}
	if c.index.n >= c.capacity {
		victim := c.order.back
		c.order.unlink(victim)
		c.index.remove(c.order.entries[victim].id)
		c.order.entries[victim].id = id
		c.index.put(id, victim, false)
		c.order.pushFront(victim)
		c.last = victim
		return false
	}
	i := c.order.alloc(id)
	c.index.put(id, i, false)
	c.order.pushFront(i)
	c.last = i
	return false
}

// Contains implements Cache.
func (c *FIFO) Contains(id BlockID) bool { _, ok := c.index.lookup(id); return ok }

// Invalidate implements Cache. A freed slot keeps its stale id, so
// the remembered slot is forgotten.
func (c *FIFO) Invalidate(id BlockID) {
	if i, _, ok := c.index.get(id); ok {
		c.order.unlink(i)
		c.order.free = append(c.order.free, i)
		c.index.remove(id)
		c.last = -1
	}
}

// Len implements Cache.
func (c *FIFO) Len() int { return c.index.n }

// Capacity implements Cache.
func (c *FIFO) Capacity() int { return c.capacity }

// Stats implements Cache.
func (c *FIFO) Stats() Stats { return c.stats }

// Name implements Cache.
func (c *FIFO) Name() string { return "FIFO" }

// Verify the implementations satisfy the interface.
var (
	_ Cache = (*LRU)(nil)
	_ Cache = (*FIFO)(nil)
)
