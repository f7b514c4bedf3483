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

// entries is the slot space of the list policies (LRU, FIFO and
// SLRU): slot i holds block ids[i], threaded onto a list by links[i].
// Slots link by index rather than pointer, so a cache performs zero
// per-insertion allocations once its slices have grown to capacity: an
// eviction reuses the victim's slot in place.
type entries struct {
	ids   []BlockID
	links []link
	free  []int32 // slots vacated by Invalidate
}

// link is one slot's place on a list: slot indexes, -1 = end of list.
type link struct{ prev, next int32 }

func newEntries(capacity int) entries {
	// Both slices are sized up front, but only to 1<<16 slots: a cache
	// of nominal capacity beyond that grows them by append only as it
	// fills.
	n := min(capacity, 1<<16)
	return entries{ids: make([]BlockID, 0, n), links: make([]link, 0, n)}
}

// reset empties the slot space, keeping its storage.
func (e *entries) reset() {
	e.ids, e.links, e.free = e.ids[:0], e.links[:0], e.free[:0]
}

// alloc returns a slot for id, reusing a freed slot when available.
func (e *entries) alloc(id BlockID) int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		e.ids[i] = id
		return i
	}
	e.ids = append(e.ids, id)
	e.links = append(e.links, link{-1, -1})
	return int32(len(e.ids) - 1)
}

// list is a doubly-linked list threaded through the links of an
// entries slot space. front is the most recent (LRU) or newest (FIFO)
// slot, back the eviction victim.
type list struct{ front, back int32 }

func newList() list { return list{-1, -1} }

func (l *list) pushFront(links []link, i int32) {
	links[i] = link{prev: -1, next: l.front}
	if l.front >= 0 {
		links[l.front].prev = i
	} else {
		l.back = i
	}
	l.front = i
}

func (l *list) unlink(links []link, i int32) {
	e := links[i]
	if e.prev >= 0 {
		links[e.prev].next = e.next
	} else {
		l.front = e.next
	}
	if e.next >= 0 {
		links[e.next].prev = e.prev
	} else {
		l.back = e.prev
	}
}

// LRU is a least-recently-used block cache.
type LRU struct {
	capacity int
	index    blockIndex
	entries  entries
	order    list
	stats    Stats
}

// NewLRU returns an LRU cache holding up to capacity blocks.
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive LRU capacity %d", capacity))
	}
	return &LRU{
		capacity: capacity,
		index:    newBlockIndex(capacity),
		entries:  newEntries(capacity),
		order:    newList(),
	}
}

// Reset empties the cache and zeroes its counters, keeping its storage:
// afterwards it answers every access as a fresh NewLRU of the same
// capacity would.
func (c *LRU) Reset() {
	c.index.reset()
	c.entries.reset()
	c.order = newList()
	c.stats = Stats{}
}

// Access implements Cache.
func (c *LRU) Access(id BlockID) bool {
	c.stats.Accesses++
	e := &c.entries
	if f := c.order.front; f >= 0 && e.ids[f] == id {
		// A repeat of the most recent block: already at the front.
		c.stats.Hits++
		return true
	}
	if pos, ok := c.index.find(id, e.ids); ok {
		i := c.index.slots[pos].val()
		// Not the front, which the repeat check above answered.
		c.stats.Hits++
		c.order.unlink(e.links, i)
		c.order.pushFront(e.links, i)
		return true
	}
	var i int32
	if c.index.n >= c.capacity {
		// Evict the back block and reuse its slot in place.
		i = c.order.back
		c.order.unlink(e.links, i)
		c.index.remove(e.ids[i], i)
		e.ids[i] = id
	} else {
		i = e.alloc(id)
	}
	c.index.insert(id, i)
	c.order.pushFront(e.links, i)
	return false
}

// Contains implements Cache.
func (c *LRU) Contains(id BlockID) bool { _, ok := c.index.find(id, c.entries.ids); return ok }

// Invalidate implements Cache.
func (c *LRU) Invalidate(id BlockID) {
	if pos, ok := c.index.find(id, c.entries.ids); ok {
		i := c.index.slots[pos].val()
		c.order.unlink(c.entries.links, i)
		c.entries.free = append(c.entries.free, i)
		c.index.remove(id, i)
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
	entries  entries
	order    list  // front = newest arrival
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
		index:    newBlockIndex(0),
		entries:  newEntries(capacity),
		order:    newList(),
		last:     -1,
	}
}

// Access implements Cache. A hit changes nothing, so a repeat of the
// last block is answered from its remembered slot.
func (c *FIFO) Access(id BlockID) bool {
	c.stats.Accesses++
	e := &c.entries
	if c.last >= 0 && e.ids[c.last] == id {
		c.stats.Hits++
		return true
	}
	if pos, ok := c.index.find(id, e.ids); ok {
		i := c.index.slots[pos].val()
		c.stats.Hits++
		c.last = i
		return true
	}
	var i int32
	if c.index.n >= c.capacity {
		// Evict the back block and reuse its slot in place.
		i = c.order.back
		c.order.unlink(e.links, i)
		c.index.remove(e.ids[i], i)
		e.ids[i] = id
	} else {
		i = e.alloc(id)
	}
	c.index.insert(id, i)
	c.order.pushFront(e.links, i)
	c.last = i
	return false
}

// Contains implements Cache.
func (c *FIFO) Contains(id BlockID) bool { _, ok := c.index.find(id, c.entries.ids); return ok }

// Invalidate implements Cache. A freed slot keeps its stale id, so
// the remembered slot is forgotten.
func (c *FIFO) Invalidate(id BlockID) {
	if pos, ok := c.index.find(id, c.entries.ids); ok {
		i := c.index.slots[pos].val()
		c.order.unlink(c.entries.links, i)
		c.entries.free = append(c.entries.free, i)
		c.index.remove(id, i)
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
