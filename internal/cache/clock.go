// Clock and segmented-LRU replacement: two policies the paper's
// successors (Sprite, 4.4BSD, and the parallel-I/O caching literature
// that followed CHARISMA) used where true LRU bookkeeping was too
// expensive at I/O-node request rates. They widen the Figure 9 policy
// axis beyond the paper's LRU/FIFO pair: Clock approximates LRU with
// one reference bit per buffer, and SLRU protects re-referenced
// blocks from the sequential floods that wash through an I/O node.
package cache

import "fmt"

// Clock is a second-chance (clock) block cache: buffers sit on a
// circular list with one reference bit each. A hit sets the bit; a
// miss sweeps the hand forward, clearing bits until it finds an
// unreferenced victim. Behaviour approximates LRU at FIFO cost.
type Clock struct {
	capacity int
	index    blockIndex
	ids      []BlockID
	ref      []bool
	hand     int32
	last     int32 // slot of the block accessed last, -1 = none
	stats    Stats
}

// NewClock returns a clock cache holding up to capacity blocks.
func NewClock(capacity int) *Clock {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive Clock capacity %d", capacity))
	}
	return &Clock{
		capacity: capacity,
		index:    newBlockIndex(0),
		last:     -1,
	}
}

// Access implements Cache. A repeat of the last block is answered from
// its remembered slot, setting the reference bit as a hit does.
func (c *Clock) Access(id BlockID) bool {
	c.stats.Accesses++
	if c.last >= 0 && c.ids[c.last] == id {
		c.stats.Hits++
		c.ref[c.last] = true
		return true
	}
	if pos, ok := c.index.find(id, c.ids); ok {
		i := c.index.slots[pos].val()
		c.stats.Hits++
		c.ref[i] = true
		c.last = i
		return true
	}
	if len(c.ids) < c.capacity {
		c.ids = append(c.ids, id)
		c.ref = append(c.ref, false)
		c.last = int32(len(c.ids) - 1)
		c.index.insert(id, c.last)
		return false
	}
	// Sweep for a victim: clear reference bits until one is unset.
	for c.ref[c.hand] {
		c.ref[c.hand] = false
		c.hand = (c.hand + 1) % int32(len(c.ids))
	}
	victim := c.hand
	// An invalidated victim is in no entry, and remove finds an entry
	// by its slot, so the tombstone's zero BlockID cannot drop a
	// genuine zero block cached in another slot.
	c.index.remove(c.ids[victim], victim)
	c.ids[victim] = id
	c.ref[victim] = false
	c.index.insert(id, victim)
	c.last = victim
	c.hand = (c.hand + 1) % int32(len(c.ids))
	return false
}

// Contains implements Cache.
func (c *Clock) Contains(id BlockID) bool { _, ok := c.index.find(id, c.ids); return ok }

// Invalidate implements Cache. The slot keeps its position on the
// ring: its entry is removed, its id tombstoned with a zero BlockID
// and its reference bit cleared, making it an immediate victim
// candidate for the next sweep. A genuine zero BlockID could be
// cached in some other slot, so the remembered slot is forgotten: a
// zero BlockID must not hit a tombstone.
func (c *Clock) Invalidate(id BlockID) {
	if pos, ok := c.index.find(id, c.ids); ok {
		i := c.index.slots[pos].val()
		c.index.remove(id, i)
		// Make the slot an immediate victim candidate.
		c.ref[i] = false
		c.ids[i] = BlockID{}
		c.last = -1
	}
}

// Len implements Cache.
func (c *Clock) Len() int { return c.index.n }

// Capacity implements Cache.
func (c *Clock) Capacity() int { return c.capacity }

// Stats implements Cache.
func (c *Clock) Stats() Stats { return c.stats }

// Name implements Cache.
func (c *Clock) Name() string { return "Clock" }

// SLRU is a segmented LRU cache (Karedla, Love, and Wherry's design):
// a probationary segment absorbs first touches and a protected
// segment holds blocks that were re-referenced while probationary.
// One sequential flood through the cache can displace at most the
// probationary segment, so the hot interprocess-shared blocks of a
// CHARISMA trace survive scans that would flush plain LRU.
//
// Both segments are lists over one slot space, so a promotion or a
// demotion relinks a block without touching the index.
type SLRU struct {
	capacity  int
	protCap   int // protected-segment capacity
	index     blockIndex
	entries   entries
	protected []bool // protected[i]: slot i is in the protected segment
	prob      list   // probationary segment, front = MRU
	prot      list   // protected segment, front = MRU
	probLen   int
	protLen   int
	stats     Stats
}

// NewSLRU returns a segmented-LRU cache holding up to capacity blocks
// in total, with ~80% of the capacity protected (the ratio the
// original SLRU paper found robust). A capacity too small to split
// degenerates to plain LRU in the probationary segment.
func NewSLRU(capacity int) *SLRU {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive SLRU capacity %d", capacity))
	}
	protCap := capacity * 4 / 5
	if capacity >= 2 && protCap == 0 {
		protCap = 1
	}
	e := newEntries(capacity)
	return &SLRU{
		capacity:  capacity,
		protCap:   protCap,
		index:     newBlockIndex(0),
		entries:   e,
		protected: make([]bool, 0, cap(e.ids)),
		prob:      newList(),
		prot:      newList(),
	}
}

// Access implements Cache.
func (c *SLRU) Access(id BlockID) bool {
	c.stats.Accesses++
	e := &c.entries
	if f := c.prot.front; f >= 0 && e.ids[f] == id {
		// A repeat of the protected MRU block: already in place.
		c.stats.Hits++
		return true
	}
	pos, ok := c.index.find(id, e.ids)
	if !ok {
		c.insertProbationary(id)
		return false
	}
	c.stats.Hits++
	i := c.index.slots[pos].val()
	if c.protected[i] {
		// Already protected, and not the front: move to the MRU end.
		c.prot.unlink(e.links, i)
		c.prot.pushFront(e.links, i)
		return true
	}
	c.prob.unlink(e.links, i)
	if c.protCap == 0 {
		// Degenerate split: stay probationary, refreshed to MRU.
		c.prob.pushFront(e.links, i)
		return true
	}
	// Re-referenced while probationary: promote.
	if c.protLen >= c.protCap {
		// Demote the protected LRU to the probationary MRU end. The
		// promoted block has left that segment, so nothing is evicted.
		v := c.prot.back
		c.prot.unlink(e.links, v)
		c.prob.pushFront(e.links, v)
		c.protected[v] = false
		c.protLen--
		c.probLen++
	}
	c.prot.pushFront(e.links, i)
	c.protected[i] = true
	c.probLen--
	c.protLen++
	return true
}

// insertProbationary puts id at the probationary MRU end, evicting the
// probationary LRU if the cache as a whole is full.
func (c *SLRU) insertProbationary(id BlockID) {
	e := &c.entries
	var i int32
	if c.probLen+c.protLen >= c.capacity {
		// The new block takes the victim's slot.
		if i = c.prob.back; i >= 0 {
			c.prob.unlink(e.links, i)
			c.probLen--
		} else {
			// Everything resident is protected (possible only when the
			// probationary segment is empty); evict the protected LRU.
			i = c.prot.back
			c.prot.unlink(e.links, i)
			c.protLen--
		}
		c.index.remove(e.ids[i], i)
		e.ids[i] = id
	} else {
		i = e.alloc(id)
		if int(i) == len(c.protected) {
			c.protected = append(c.protected, false)
		}
	}
	c.protected[i] = false
	c.prob.pushFront(e.links, i)
	c.index.insert(id, i)
	c.probLen++
}

// Contains implements Cache.
func (c *SLRU) Contains(id BlockID) bool { _, ok := c.index.find(id, c.entries.ids); return ok }

// Invalidate implements Cache.
func (c *SLRU) Invalidate(id BlockID) {
	pos, ok := c.index.find(id, c.entries.ids)
	if !ok {
		return
	}
	i := c.index.slots[pos].val()
	if c.protected[i] {
		c.prot.unlink(c.entries.links, i)
		c.protLen--
	} else {
		c.prob.unlink(c.entries.links, i)
		c.probLen--
	}
	c.entries.free = append(c.entries.free, i)
	c.index.remove(id, i)
}

// Len implements Cache.
func (c *SLRU) Len() int { return c.index.n }

// Capacity implements Cache.
func (c *SLRU) Capacity() int { return c.capacity }

// Stats implements Cache.
func (c *SLRU) Stats() Stats { return c.stats }

// Name implements Cache.
func (c *SLRU) Name() string { return "SLRU" }

// Verify the implementations satisfy the interface.
var (
	_ Cache = (*Clock)(nil)
	_ Cache = (*SLRU)(nil)
)
