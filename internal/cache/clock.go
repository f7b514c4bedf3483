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
		index:    newBlockIndex(),
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
	if i, _, ok := c.index.get(id); ok {
		c.stats.Hits++
		c.ref[i] = true
		c.last = i
		return true
	}
	if len(c.ids) < c.capacity {
		c.ids = append(c.ids, id)
		c.ref = append(c.ref, false)
		c.last = int32(len(c.ids) - 1)
		c.index.put(id, c.last, false)
		return false
	}
	// Sweep for a victim: clear reference bits until one is unset.
	for c.ref[c.hand] {
		c.ref[c.hand] = false
		c.hand = (c.hand + 1) % int32(len(c.ids))
	}
	victim := c.hand
	// Guard against an Invalidate tombstone whose zero BlockID could
	// collide with a genuinely cached block living in another slot.
	if j, _, ok := c.index.get(c.ids[victim]); ok && j == victim {
		c.index.remove(c.ids[victim])
	}
	c.ids[victim] = id
	c.ref[victim] = false
	c.index.put(id, victim, false)
	c.last = victim
	c.hand = (c.hand + 1) % int32(len(c.ids))
	return false
}

// Contains implements Cache.
func (c *Clock) Contains(id BlockID) bool { _, ok := c.index.lookup(id); return ok }

// Invalidate implements Cache. The slot keeps its position on the
// ring: its entry is tombstoned with a zero BlockID and its reference
// bit cleared, making it an immediate victim candidate for the next
// sweep. Because a genuine zero BlockID could also be cached in some
// other slot, the eviction path in Access only deletes the victim's
// index entry when it still points at the victim's slot, and the
// remembered slot is forgotten so a zero BlockID cannot hit a
// tombstone.
func (c *Clock) Invalidate(id BlockID) {
	if i, _, ok := c.index.get(id); ok {
		c.index.remove(id)
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
type SLRU struct {
	capacity int
	protCap  int        // protected-segment capacity
	index    blockIndex // flag set: the block is in the protected segment
	prob     order      // probationary segment, front = MRU
	prot     order      // protected segment, front = MRU
	probLen  int
	protLen  int
	stats    Stats
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
	return &SLRU{
		capacity: capacity,
		protCap:  protCap,
		index:    newBlockIndex(),
		prob:     newOrder(capacity - protCap),
		prot:     newOrder(protCap),
	}
}

// Access implements Cache.
func (c *SLRU) Access(id BlockID) bool {
	c.stats.Accesses++
	if f := c.prot.front; f >= 0 && c.prot.entries[f].id == id {
		// A repeat of the protected MRU block: already in place.
		c.stats.Hits++
		return true
	}
	if i, protected, ok := c.index.get(id); ok {
		c.stats.Hits++
		if protected {
			// Already protected: move to the segment's MRU end.
			if c.prot.front != i {
				c.prot.unlink(i)
				c.prot.pushFront(i)
			}
			return true
		}
		// Re-referenced while probationary: promote.
		c.prob.unlink(i)
		c.prob.free = append(c.prob.free, i)
		c.probLen--
		if c.protCap == 0 {
			// Degenerate split: stay probationary, refreshed to MRU.
			j := c.prob.alloc(id)
			c.prob.pushFront(j)
			c.index.put(id, j, false)
			c.probLen++
			return true
		}
		if c.protLen >= c.protCap {
			// Demote the protected LRU back to probationary MRU.
			victim := c.prot.back
			vid := c.prot.entries[victim].id
			c.prot.unlink(victim)
			c.prot.free = append(c.prot.free, victim)
			c.protLen--
			c.insertProbationary(vid) // also clears vid's protected flag
		}
		j := c.prot.alloc(id)
		c.prot.pushFront(j)
		c.index.put(id, j, true)
		c.protLen++
		return true
	}
	c.insertProbationary(id)
	return false
}

// insertProbationary puts id at the probationary MRU end, evicting the
// probationary LRU if the cache as a whole is full.
func (c *SLRU) insertProbationary(id BlockID) {
	if c.probLen+c.protLen >= c.capacity {
		victim := c.prob.back
		if victim < 0 {
			// Everything resident is protected (possible only when the
			// probationary segment is empty); evict the protected LRU.
			victim = c.prot.back
			vid := c.prot.entries[victim].id
			c.prot.unlink(victim)
			c.prot.free = append(c.prot.free, victim)
			c.protLen--
			c.index.remove(vid)
		} else {
			vid := c.prob.entries[victim].id
			c.prob.unlink(victim)
			c.prob.free = append(c.prob.free, victim)
			c.probLen--
			c.index.remove(vid)
		}
	}
	i := c.prob.alloc(id)
	c.prob.pushFront(i)
	c.index.put(id, i, false)
	c.probLen++
}

// Contains implements Cache.
func (c *SLRU) Contains(id BlockID) bool { _, ok := c.index.lookup(id); return ok }

// Invalidate implements Cache.
func (c *SLRU) Invalidate(id BlockID) {
	i, protected, ok := c.index.get(id)
	if !ok {
		return
	}
	if protected {
		c.prot.unlink(i)
		c.prot.free = append(c.prot.free, i)
		c.protLen--
	} else {
		c.prob.unlink(i)
		c.prob.free = append(c.prob.free, i)
		c.probLen--
	}
	c.index.remove(id)
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
