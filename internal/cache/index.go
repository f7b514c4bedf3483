package cache

import (
	"math/bits"
	"math/rand/v2"
)

// blockIndex maps each resident BlockID to the slot a policy keeps it
// in. It is an open-addressed table with linear probing, sized to a
// power of two and kept at most half full, so a lookup touches one or
// two adjacent slots on average. Deletion shifts the rest of the probe
// run back instead of leaving tombstones, so the evict-on-miss churn
// of a full cache neither allocates nor degrades the table over time.
//
// Each table slot is 8 bytes: a 32-bit tag, the top half of the
// block's seeded hash, and the policy's slot plus one, with 0 marking
// an empty table slot. The tag's top bits are the home position, so
// resizing and backward-shift deletion move entries without reading a
// BlockID. The table stores no BlockID: every policy already keeps
// each slot's block in an ids slice (ids[v] is the block in slot v),
// and lookups take that slice. Distinct blocks can share a tag, so a
// tag match counts only once ids confirms it.
//
// An LRU cache's table starts at the size its cache reaches when full,
// up to maxPresizedSlots: the CFS I/O nodes' caches fill in a study,
// and doubling up to that size allocated each table about twice over.
// Every other table grows by doubling only while its cache or stack
// fills: one that holds a handful of blocks (one of Figure 8's
// per-(job, node) stacks, or most caches of a FIFO, Clock or SLRU
// ladder) never pays for its nominal capacity.
//
// Slot positions depend on a per-table random seed, so a crafted trace
// cannot line its blocks up into one long probe run. Only Stack's
// compaction visits the table in position order, and what it computes
// does not depend on that order, so the seed cannot reach any
// simulated result.
type blockIndex struct {
	slots []indexSlot
	mask  uint64 // len(slots) - 1
	shift uint   // 32 - log2(len(slots)): home positions take a tag's top bits
	seed  uint64
	n     int // occupied slots
}

// indexSlot is one table slot: an entry's tag, and its policy slot
// plus one (0: the table slot is empty).
type indexSlot struct {
	tag uint32
	ref uint32
}

// val returns the policy slot an occupied table slot holds.
func (s indexSlot) val() int32 { return int32(s.ref - 1) }

// set makes an occupied table slot hold policy slot v.
func (s *indexSlot) set(v int32) { s.ref = uint32(v) + 1 }

// minIndexSlots is the smallest table; maxPresizedSlots the largest a
// table starts at, the cap newEntries puts on a cache's slot slices.
const (
	minIndexSlots    = 8
	maxPresizedSlots = 1 << 16
)

// newBlockIndex returns an empty index whose table holds entries
// entries before it first grows, within [minIndexSlots,
// maxPresizedSlots] slots. 0 asks for the smallest table.
func newBlockIndex(entries int) blockIndex {
	size := minIndexSlots
	for size < 2*entries && size < maxPresizedSlots {
		size *= 2
	}
	ix := blockIndex{seed: rand.Uint64()}
	ix.resize(size)
	return ix
}

// tag returns the top half of id's hash: a multiplicative mix of the
// file (salted by the seed) and the block, which spreads both
// consecutive and strided block runs. It is one expression so that
// find stays within the compiler's inlining budget.
func (ix *blockIndex) tag(id BlockID) uint32 {
	return uint32(((id.File^ix.seed)*0x9e3779b97f4a7c15 + uint64(id.Block)) * 0xd6e8feb86659fd93 >> 32)
}

// home returns the position an entry with the given tag probes from.
func (ix *blockIndex) home(tag uint32) uint64 { return uint64(tag >> ix.shift) }

// find returns the position holding id, or the empty position that
// ends its probe run. ids[v] is the block in policy slot v. The
// compiler inlines find into every policy's Access.
func (ix *blockIndex) find(id BlockID, ids []BlockID) (pos uint64, found bool) {
	tag := ix.tag(id)
	for pos = ix.home(tag); ; pos = (pos + 1) & ix.mask {
		s := ix.slots[pos]
		if s.ref == 0 {
			return pos, false
		}
		if s.tag == tag && ids[s.ref-1] == id {
			return pos, true
		}
	}
}

// insert adds id, which must be absent, in policy slot val.
func (ix *blockIndex) insert(id BlockID, val int32) {
	if 2*(ix.n+1) > len(ix.slots) {
		ix.resize(2 * len(ix.slots))
	}
	ix.place(indexSlot{tag: ix.tag(id), ref: uint32(val) + 1})
	ix.n++
}

// place puts s in the first empty position of its probe run.
func (ix *blockIndex) place(s indexSlot) {
	pos := ix.home(s.tag)
	for ix.slots[pos].ref != 0 {
		pos = (pos + 1) & ix.mask
	}
	ix.slots[pos] = s
}

// remove deletes the entry that holds id in policy slot val, reporting
// whether there was one. A policy slot is in the table at most once,
// so the entry is found by its slot along id's probe run, with no id
// compared. Each later entry of the run moves back into the hole when
// the hole lies between that entry's home and its current position,
// which keeps every remaining entry reachable from its home without a
// tombstone.
func (ix *blockIndex) remove(id BlockID, val int32) bool {
	ref := uint32(val) + 1
	hole := ix.home(ix.tag(id))
	for ix.slots[hole].ref != ref {
		if ix.slots[hole].ref == 0 {
			return false
		}
		hole = (hole + 1) & ix.mask
	}
	for pos := (hole + 1) & ix.mask; ix.slots[pos].ref != 0; pos = (pos + 1) & ix.mask {
		if (pos-ix.home(ix.slots[pos].tag))&ix.mask >= (pos-hole)&ix.mask {
			ix.slots[hole] = ix.slots[pos]
			hole = pos
		}
	}
	ix.slots[hole] = indexSlot{}
	ix.n--
	return true
}

// reset removes every entry, keeping the table and its seed.
func (ix *blockIndex) reset() {
	clear(ix.slots)
	ix.n = 0
}

// resize rehashes every entry into a fresh table of size slots (a
// power of two, at most 2^32).
func (ix *blockIndex) resize(size int) {
	old := ix.slots
	ix.slots = make([]indexSlot, size)
	ix.mask = uint64(size - 1)
	ix.shift = 32 - uint(bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.ref != 0 {
			ix.place(s)
		}
	}
}
