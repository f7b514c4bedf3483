package cache

// This file keeps the block index and the five structures built on it
// as they were before the index moved to 8-byte tagged slots: 24-byte
// slots that copy each BlockID, SLRU's protected bit kept in the
// index, and one entry slice per list. Only type and constructor
// names differ. TestPoliciesMatchReference drives every policy and
// Stack beside its old form and compares every result.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// refIndex maps each resident BlockID to the slot a policy keeps it
// in. It is an open-addressed table with linear probing, sized to a
// power of two and kept at most half full, so a lookup touches one or
// two adjacent slots on average. Deletion shifts the rest of the probe
// run back instead of leaving tombstones, so the evict-on-miss churn
// of a full cache neither allocates nor degrades the table over time.
//
// The table grows by doubling only while the cache fills: a cache that
// holds a handful of blocks (one of the per-(job, node) compute-node
// caches of Figure 8, say) never pays for its nominal capacity.
//
// Slot positions depend on a per-table random seed, so a crafted trace
// cannot line its blocks up into one long probe run. The table is
// never iterated, so the seed cannot reach any simulated result.
type refIndex struct {
	slots []refIndexSlot
	mask  uint64 // len(slots) - 1
	shift uint   // 64 - log2(len(slots)): home positions take the top bits
	seed  uint64
	n     int // occupied slots
}

// refIndexSlot is one table cell. val is the policy's slot for id; flag
// is one bit of per-block policy state (SLRU: the block is protected).
type refIndexSlot struct {
	id   BlockID
	val  int32
	flag bool
	used bool
}

// refMinIndexSlots is the initial table size.
const refMinIndexSlots = 8

func newRefIndex() refIndex {
	ix := refIndex{seed: rand.Uint64()}
	ix.resize(refMinIndexSlots)
	return ix
}

// home returns id's preferred position: a multiplicative mix of the
// file (salted by the seed) and the block, read from the product's top
// bits, which spreads both consecutive and strided block runs.
func (ix *refIndex) home(id BlockID) uint64 {
	h := (id.File^ix.seed)*0x9e3779b97f4a7c15 + uint64(id.Block)
	return (h * 0xd6e8feb86659fd93) >> ix.shift
}

// lookup returns the position holding id, or the empty position that
// ends its probe run.
func (ix *refIndex) lookup(id BlockID) (pos uint64, found bool) {
	for pos = ix.home(id); ix.slots[pos].used; pos = (pos + 1) & ix.mask {
		if ix.slots[pos].id == id {
			return pos, true
		}
	}
	return pos, false
}

// get returns id's value and flag, and whether id is present.
func (ix *refIndex) get(id BlockID) (val int32, flag, ok bool) {
	pos, ok := ix.lookup(id)
	s := &ix.slots[pos]
	return s.val, s.flag, ok
}

// put sets id's value and flag, inserting id if absent.
func (ix *refIndex) put(id BlockID, val int32, flag bool) {
	pos, ok := ix.lookup(id)
	if !ok {
		if 2*(ix.n+1) > len(ix.slots) {
			ix.resize(2 * len(ix.slots))
			pos, _ = ix.lookup(id)
		}
		ix.n++
	}
	ix.slots[pos] = refIndexSlot{id: id, val: val, flag: flag, used: true}
}

// remove deletes id, reporting whether it was present. Each later
// entry of the probe run moves back into the hole when the hole lies
// between that entry's home and its current position, which keeps
// every remaining entry reachable from its home without a tombstone.
func (ix *refIndex) remove(id BlockID) bool {
	hole, ok := ix.lookup(id)
	if !ok {
		return false
	}
	for pos := (hole + 1) & ix.mask; ix.slots[pos].used; pos = (pos + 1) & ix.mask {
		if (pos-ix.home(ix.slots[pos].id))&ix.mask >= (pos-hole)&ix.mask {
			ix.slots[hole] = ix.slots[pos]
			hole = pos
		}
	}
	ix.slots[hole] = refIndexSlot{}
	ix.n--
	return true
}

// resize rehashes every entry into a fresh table of size slots (a
// power of two).
func (ix *refIndex) resize(size int) {
	old := ix.slots
	ix.slots = make([]refIndexSlot, size)
	ix.mask = uint64(size - 1)
	ix.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for i := range old {
		if old[i].used {
			pos, _ := ix.lookup(old[i].id)
			ix.slots[pos] = old[i]
		}
	}
}

// refEntry is one resident block in the slice-backed intrusive list
// shared by the LRU and FIFO implementations. Entries link by slot
// index rather than pointer, so a cache performs zero per-insertion
// allocations once its entry slice has grown to capacity: an eviction
// reuses the victim's slot in place.
type refEntry struct {
	id         BlockID
	prev, next int32 // slot indexes, -1 = end of list
}

// refOrder is a doubly-linked list threaded through an entry slice.
// front is the most recent (LRU) or newest (FIFO) entry, back the
// eviction victim.
type refOrder struct {
	entries     []refEntry
	front, back int32
	free        []int32 // slots vacated by Invalidate
}

func newRefOrder(capacity int) refOrder {
	// Entries grow by append up to capacity, so short-lived caches
	// (e.g. one per job-node pair in the Figure 8 simulation) never
	// pay for capacity they do not use.
	return refOrder{front: -1, back: -1, entries: make([]refEntry, 0, min(capacity, 1<<16))}
}

// alloc returns a slot for id, reusing a freed slot when available.
func (o *refOrder) alloc(id BlockID) int32 {
	if n := len(o.free); n > 0 {
		i := o.free[n-1]
		o.free = o.free[:n-1]
		o.entries[i] = refEntry{id: id, prev: -1, next: -1}
		return i
	}
	o.entries = append(o.entries, refEntry{id: id, prev: -1, next: -1})
	return int32(len(o.entries) - 1)
}

func (o *refOrder) pushFront(i int32) {
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

func (o *refOrder) unlink(i int32) {
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

// refLRU is a least-recently-used block cache.
type refLRU struct {
	capacity int
	index    refIndex
	order    refOrder
	stats    Stats
}

// newRefLRU returns an LRU cache holding up to capacity blocks.
func newRefLRU(capacity int) *refLRU {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive LRU capacity %d", capacity))
	}
	return &refLRU{
		capacity: capacity,
		index:    newRefIndex(),
		order:    newRefOrder(capacity),
	}
}

// Access implements Cache.
func (c *refLRU) Access(id BlockID) bool {
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
func (c *refLRU) Contains(id BlockID) bool { _, ok := c.index.lookup(id); return ok }

// Invalidate implements Cache.
func (c *refLRU) Invalidate(id BlockID) {
	if i, _, ok := c.index.get(id); ok {
		c.order.unlink(i)
		c.order.free = append(c.order.free, i)
		c.index.remove(id)
	}
}

// Len implements Cache.
func (c *refLRU) Len() int { return c.index.n }

// Capacity implements Cache.
func (c *refLRU) Capacity() int { return c.capacity }

// Stats implements Cache.
func (c *refLRU) Stats() Stats { return c.stats }

// Name implements Cache.
func (c *refLRU) Name() string { return "LRU" }

// refFIFO is a first-in-first-out block cache: hits do not refresh an
// entry's position, so a resident block is evicted a fixed number of
// insertions after it arrived. The paper shows this costs a factor of
// ~5 in required cache size at the I/O nodes.
type refFIFO struct {
	capacity int
	index    refIndex
	order    refOrder // front = newest arrival
	last     int32    // slot of the block accessed last, -1 = none
	stats    Stats
}

// newRefFIFO returns a FIFO cache holding up to capacity blocks.
func newRefFIFO(capacity int) *refFIFO {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive FIFO capacity %d", capacity))
	}
	return &refFIFO{
		capacity: capacity,
		index:    newRefIndex(),
		order:    newRefOrder(capacity),
		last:     -1,
	}
}

// Access implements Cache. A hit changes nothing, so a repeat of the
// last block is answered from its remembered slot.
func (c *refFIFO) Access(id BlockID) bool {
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
func (c *refFIFO) Contains(id BlockID) bool { _, ok := c.index.lookup(id); return ok }

// Invalidate implements Cache. A freed slot keeps its stale id, so
// the remembered slot is forgotten.
func (c *refFIFO) Invalidate(id BlockID) {
	if i, _, ok := c.index.get(id); ok {
		c.order.unlink(i)
		c.order.free = append(c.order.free, i)
		c.index.remove(id)
		c.last = -1
	}
}

// Len implements Cache.
func (c *refFIFO) Len() int { return c.index.n }

// Capacity implements Cache.
func (c *refFIFO) Capacity() int { return c.capacity }

// Stats implements Cache.
func (c *refFIFO) Stats() Stats { return c.stats }

// Name implements Cache.
func (c *refFIFO) Name() string { return "FIFO" }

// refClock is a second-chance (clock) block cache: buffers sit on a
// circular list with one reference bit each. A hit sets the bit; a
// miss sweeps the hand forward, clearing bits until it finds an
// unreferenced victim. Behaviour approximates LRU at FIFO cost.
type refClock struct {
	capacity int
	index    refIndex
	ids      []BlockID
	ref      []bool
	hand     int32
	last     int32 // slot of the block accessed last, -1 = none
	stats    Stats
}

// newRefClock returns a clock cache holding up to capacity blocks.
func newRefClock(capacity int) *refClock {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive Clock capacity %d", capacity))
	}
	return &refClock{
		capacity: capacity,
		index:    newRefIndex(),
		last:     -1,
	}
}

// Access implements Cache. A repeat of the last block is answered from
// its remembered slot, setting the reference bit as a hit does.
func (c *refClock) Access(id BlockID) bool {
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
func (c *refClock) Contains(id BlockID) bool { _, ok := c.index.lookup(id); return ok }

// Invalidate implements Cache. The slot keeps its position on the
// ring: its entry is tombstoned with a zero BlockID and its reference
// bit cleared, making it an immediate victim candidate for the next
// sweep. Because a genuine zero BlockID could also be cached in some
// other slot, the eviction path in Access only deletes the victim's
// index entry when it still points at the victim's slot, and the
// remembered slot is forgotten so a zero BlockID cannot hit a
// tombstone.
func (c *refClock) Invalidate(id BlockID) {
	if i, _, ok := c.index.get(id); ok {
		c.index.remove(id)
		// Make the slot an immediate victim candidate.
		c.ref[i] = false
		c.ids[i] = BlockID{}
		c.last = -1
	}
}

// Len implements Cache.
func (c *refClock) Len() int { return c.index.n }

// Capacity implements Cache.
func (c *refClock) Capacity() int { return c.capacity }

// Stats implements Cache.
func (c *refClock) Stats() Stats { return c.stats }

// Name implements Cache.
func (c *refClock) Name() string { return "Clock" }

// refSLRU is a segmented LRU cache (Karedla, Love, and Wherry's design):
// a probationary segment absorbs first touches and a protected
// segment holds blocks that were re-referenced while probationary.
// One sequential flood through the cache can displace at most the
// probationary segment, so the hot interprocess-shared blocks of a
// CHARISMA trace survive scans that would flush plain LRU.
type refSLRU struct {
	capacity int
	protCap  int      // protected-segment capacity
	index    refIndex // flag set: the block is in the protected segment
	prob     refOrder // probationary segment, front = MRU
	prot     refOrder // protected segment, front = MRU
	probLen  int
	protLen  int
	stats    Stats
}

// newRefSLRU returns a segmented-LRU cache holding up to capacity blocks
// in total, with ~80% of the capacity protected (the ratio the
// original SLRU paper found robust). A capacity too small to split
// degenerates to plain LRU in the probationary segment.
func newRefSLRU(capacity int) *refSLRU {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive SLRU capacity %d", capacity))
	}
	protCap := capacity * 4 / 5
	if capacity >= 2 && protCap == 0 {
		protCap = 1
	}
	return &refSLRU{
		capacity: capacity,
		protCap:  protCap,
		index:    newRefIndex(),
		prob:     newRefOrder(capacity - protCap),
		prot:     newRefOrder(protCap),
	}
}

// Access implements Cache.
func (c *refSLRU) Access(id BlockID) bool {
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
func (c *refSLRU) insertProbationary(id BlockID) {
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
func (c *refSLRU) Contains(id BlockID) bool { _, ok := c.index.lookup(id); return ok }

// Invalidate implements Cache.
func (c *refSLRU) Invalidate(id BlockID) {
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
func (c *refSLRU) Len() int { return c.index.n }

// Capacity implements Cache.
func (c *refSLRU) Capacity() int { return c.capacity }

// Stats implements Cache.
func (c *refSLRU) Stats() Stats { return c.stats }

// Name implements Cache.
func (c *refSLRU) Name() string { return "SLRU" }

// refStack measures LRU stack distances over one stream of block
// accesses. LRU is a stack algorithm (Mattson, Gecsei, Slutz and
// Traiger, "Evaluation techniques for storage hierarchies", 1970): a
// cache of capacity c holds the c most recently used blocks, so an
// access hits it exactly when fewer than c other blocks were used
// since the block's previous access. One pass that records each
// access's distance therefore gives the hits of every LRU size at
// once.
//
// Each block remembers the time of its last access, and a Fenwick tree
// over access times holds a 1 at every block's last access (Bennett
// and Kruskal, "LRU stack processing", 1975). The blocks used since a
// block's last access at time t number ones - prefix(t), where ones
// counts the tree's 1s, so an access costs O(log n).
//
// A stack holds only its top depth blocks, the contents of the largest
// LRU cache its caller asks about: a block pushed below depth could
// hit no such cache, so it is forgotten, and memory stays proportional
// to depth rather than to the blocks the stream touches. A forgotten
// block's 1 stays in the tree: its time precedes every block still on
// the stack, so it adds equally to ones and to every prefix that
// matters. A bitset of live times finds the deepest block to forget.
// Only the last accesses matter, so when the tree fills up while most
// of its times are stale, the live times are renumbered 1..n in order.
type refStack struct {
	depth  int32
	index  refIndex  // block -> time of its last access
	tree   []int32   // Fenwick tree over times; tree[0] is unused
	ids    []BlockID // ids[t]: the block accessed at time t
	live   []uint64  // bit t: time t is the last access of a block on the stack
	oldest int32     // no block on the stack was last accessed before this time
	n      int32     // blocks on the stack
	ones   int32     // 1s in the tree: n plus the forgotten blocks'
	last   BlockID   // the block accessed last
}

// newRefStack returns an empty stack that tracks distances up to depth.
func newRefStack(depth int) *refStack {
	if depth <= 0 {
		panic(fmt.Sprintf("cache: non-positive Stack depth %d", depth))
	}
	return &refStack{
		depth:  int32(min(depth, math.MaxInt32)),
		index:  newRefIndex(),
		tree:   make([]int32, 1, 8),
		ids:    make([]BlockID, 1, 8),
		live:   make([]uint64, 1),
		oldest: 1,
	}
}

// Access records an access to id and returns its stack distance: 1 for
// the most recently used block, k for the k-th, and 0 for a block that
// is not among the top depth (its first access, or one after more than
// depth other blocks were used). An LRU cache of capacity c <= depth
// hits the access exactly when the distance is in [1, c].
func (s *refStack) Access(id BlockID) int {
	if id == s.last && s.n > 0 {
		// An immediate repeat: the block stays on top and no other
		// block's distance changes, so time need not advance.
		return 1
	}
	s.last = id
	if len(s.tree) == cap(s.tree) && len(s.tree) > 2*int(s.n)+1 {
		s.compact()
	}
	now := int32(len(s.tree))
	pos, ok := s.index.lookup(id)
	if !ok {
		if s.n == s.depth {
			s.forgetDeepest()
		}
		s.n++
		s.ones++
		s.push(id)
		s.index.put(id, now, false)
		return 0
	}
	slot := &s.index.slots[pos]
	then := slot.val
	slot.val = now
	d := s.ones - s.prefix(then) + 1
	s.live[then/64] &^= 1 << (then % 64)
	for t := then; t < now; t += t & -t {
		s.tree[t]--
	}
	s.push(id)
	return int(d)
}

// forgetDeepest drops the least recently used block, the first live
// time from oldest on. oldest only moves forward between compactions,
// so the scan is amortized O(1).
func (s *refStack) forgetDeepest() {
	for s.live[s.oldest/64]>>(s.oldest%64) == 0 {
		s.oldest = (s.oldest/64 + 1) * 64
	}
	s.oldest += int32(bits.TrailingZeros64(s.live[s.oldest/64] >> (s.oldest % 64)))
	s.live[s.oldest/64] &^= 1 << (s.oldest % 64)
	s.index.remove(s.ids[s.oldest])
	s.n--
}

// prefix returns the number of 1s at time t or earlier.
func (s *refStack) prefix(t int32) int32 {
	var n int32
	for ; t > 0; t -= t & -t {
		n += s.tree[t]
	}
	return n
}

// push appends the next time, an access to id, with a 1 at it. A
// Fenwick node i sums the times (i - lowbit(i), i], so its value is
// the new 1 plus the nodes already built under it.
func (s *refStack) push(id BlockID) {
	i := int32(len(s.tree))
	v := int32(1)
	for j := i - 1; j > i-i&-i; j -= j & -j {
		v += s.tree[j]
	}
	s.tree = append(s.tree, v)
	s.ids = append(s.ids, id)
	if i%64 == 0 {
		s.live = append(s.live, 0)
	}
	s.live[i/64] |= 1 << (i % 64)
}

// compact renumbers the blocks on the stack 1..n, keeping their order,
// and rebuilds the tree with a 1 at every time. A block's new time is
// its rank among the live times: its prefix count less the forgotten
// 1s, which all come first. Distances depend only on the order of last
// accesses, so none changes. The caller compacts only when at least
// half the tree is stale, so the cost is amortized O(1) per access.
func (s *refStack) compact() {
	forgotten := s.ones - s.n
	for p := range s.index.slots {
		if slot := &s.index.slots[p]; slot.used {
			slot.val = s.prefix(slot.val) - forgotten
			s.ids[slot.val] = slot.id
		}
	}
	s.tree, s.ids = s.tree[:s.n+1], s.ids[:s.n+1]
	for i := int32(1); i <= s.n; i++ {
		s.tree[i] = i & -i
	}
	s.live = s.live[:s.n/64+1]
	clear(s.live)
	for i := int32(1); i <= s.n; i++ {
		s.live[i/64] |= 1 << (i % 64)
	}
	s.oldest, s.ones = 1, s.n
}

// refUniverse returns n distinct blocks over four files, with block
// numbers near 0, negative, and near both ends of the int64 range,
// the zero BlockID first.
func refUniverse(n int) []BlockID {
	files := []uint64{0, 1, 7, math.MaxUint64}
	bases := []int64{0, -int64(n), math.MinInt64, math.MaxInt64 - int64(n)}
	ids := make([]BlockID, n)
	for i := range ids {
		ids[i] = BlockID{File: files[i%4], Block: bases[i/4%4] + int64(i/16)}
	}
	return ids
}

// refOp is one operation of a differential stream.
type refOp struct {
	kind byte // 'a' Access, 'c' Contains, 'i' Invalidate
	id   BlockID
}

// refStream returns n operations over universe: accesses that favour a
// hot eighth of it, immediate repeats, Contains probes, invalidations,
// and invalidations of the block touched last followed by a repeat of
// it.
func refStream(rng *rand.Rand, universe []BlockID, n int) []refOp {
	ops := make([]refOp, 0, n+1)
	hot := universe[:max(1, len(universe)/8)]
	last := universe[0]
	for len(ops) < n {
		switch r := rng.IntN(100); {
		case r < 30:
			last = universe[rng.IntN(len(universe))]
			ops = append(ops, refOp{'a', last})
		case r < 50:
			last = hot[rng.IntN(len(hot))]
			ops = append(ops, refOp{'a', last})
		case r < 75:
			ops = append(ops, refOp{'a', last})
		case r < 85:
			ops = append(ops, refOp{'c', universe[rng.IntN(len(universe))]})
		case r < 92:
			ops = append(ops, refOp{'i', universe[rng.IntN(len(universe))]})
		default:
			ops = append(ops, refOp{'i', last}, refOp{'a', last})
		}
	}
	return ops
}

// TestPoliciesMatchReference drives each policy and Stack beside its
// form before the index moved to tagged 8-byte slots, over random
// streams whose universe is half to four times the capacity, and
// compares every Access and Contains result, Len after every
// operation, the final Stats, and every stack distance.
func TestPoliciesMatchReference(t *testing.T) {
	policies := []struct {
		name     string
		cache, r func(int) Cache
	}{
		{"LRU", func(n int) Cache { return NewLRU(n) }, func(n int) Cache { return newRefLRU(n) }},
		{"FIFO", func(n int) Cache { return NewFIFO(n) }, func(n int) Cache { return newRefFIFO(n) }},
		{"Clock", func(n int) Cache { return NewClock(n) }, func(n int) Cache { return newRefClock(n) }},
		{"SLRU", func(n int) Cache { return NewSLRU(n) }, func(n int) Cache { return newRefSLRU(n) }},
	}
	sizes := []int{1, 2, 3, 50, 768, 4096}
	for _, p := range policies {
		for _, capacity := range sizes {
			t.Run(fmt.Sprintf("%s/%d", p.name, capacity), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(uint64(capacity), 24))
				for _, spread := range []int{capacity/2 + 1, 2 * capacity, 4*capacity + 3} {
					universe := refUniverse(spread)
					c, r := p.cache(capacity), p.r(capacity)
					for i, o := range refStream(rng, universe, max(4000, 12*capacity)) {
						var got, want bool
						switch o.kind {
						case 'a':
							got, want = c.Access(o.id), r.Access(o.id)
						case 'c':
							got, want = c.Contains(o.id), r.Contains(o.id)
						default:
							c.Invalidate(o.id)
							r.Invalidate(o.id)
						}
						if got != want || c.Len() != r.Len() {
							t.Fatalf("universe %d op %d %c%v: result %v len %d, reference %v len %d",
								spread, i, o.kind, o.id, got, c.Len(), want, r.Len())
						}
					}
					if c.Stats() != r.Stats() {
						t.Fatalf("universe %d: Stats %+v, reference %+v", spread, c.Stats(), r.Stats())
					}
				}
			})
		}
	}
	for _, depth := range append(sizes, 1<<40) {
		t.Run(fmt.Sprintf("Stack/%d", depth), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(depth), 16))
			for _, spread := range []int{min(depth, 1<<13)/2 + 1, 2 * min(depth, 1<<13), 5000} {
				universe := refUniverse(spread)
				s, r := NewStack(depth), newRefStack(depth)
				for i, o := range refStream(rng, universe, 30000) {
					if o.kind != 'a' {
						continue
					}
					if got, want := s.Access(o.id), r.Access(o.id); got != want {
						t.Fatalf("universe %d op %d %v: distance %d, reference %d", spread, i, o.id, got, want)
					}
				}
			}
		})
	}
}
