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
// The table grows by doubling only while the cache fills: a cache that
// holds a handful of blocks (one of the per-(job, node) compute-node
// caches of Figure 8, say) never pays for its nominal capacity.
//
// Slot positions depend on a per-table random seed, so a crafted trace
// cannot line its blocks up into one long probe run. The table is
// never iterated, so the seed cannot reach any simulated result.
type blockIndex struct {
	slots []indexSlot
	mask  uint64 // len(slots) - 1
	shift uint   // 64 - log2(len(slots)): home positions take the top bits
	seed  uint64
	n     int // occupied slots
}

// indexSlot is one table cell. val is the policy's slot for id; flag
// is one bit of per-block policy state (SLRU: the block is protected).
type indexSlot struct {
	id   BlockID
	val  int32
	flag bool
	used bool
}

// minIndexSlots is the initial table size.
const minIndexSlots = 8

func newBlockIndex() blockIndex {
	ix := blockIndex{seed: rand.Uint64()}
	ix.resize(minIndexSlots)
	return ix
}

// home returns id's preferred position: a multiplicative mix of the
// file (salted by the seed) and the block, read from the product's top
// bits, which spreads both consecutive and strided block runs.
func (ix *blockIndex) home(id BlockID) uint64 {
	h := (id.File^ix.seed)*0x9e3779b97f4a7c15 + uint64(id.Block)
	return (h * 0xd6e8feb86659fd93) >> ix.shift
}

// lookup returns the position holding id, or the empty position that
// ends its probe run.
func (ix *blockIndex) lookup(id BlockID) (pos uint64, found bool) {
	for pos = ix.home(id); ix.slots[pos].used; pos = (pos + 1) & ix.mask {
		if ix.slots[pos].id == id {
			return pos, true
		}
	}
	return pos, false
}

// get returns id's value and flag, and whether id is present.
func (ix *blockIndex) get(id BlockID) (val int32, flag, ok bool) {
	pos, ok := ix.lookup(id)
	s := &ix.slots[pos]
	return s.val, s.flag, ok
}

// put sets id's value and flag, inserting id if absent.
func (ix *blockIndex) put(id BlockID, val int32, flag bool) {
	pos, ok := ix.lookup(id)
	if !ok {
		if 2*(ix.n+1) > len(ix.slots) {
			ix.resize(2 * len(ix.slots))
			pos, _ = ix.lookup(id)
		}
		ix.n++
	}
	ix.slots[pos] = indexSlot{id: id, val: val, flag: flag, used: true}
}

// remove deletes id, reporting whether it was present. Each later
// entry of the probe run moves back into the hole when the hole lies
// between that entry's home and its current position, which keeps
// every remaining entry reachable from its home without a tombstone.
func (ix *blockIndex) remove(id BlockID) bool {
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
	ix.slots[hole] = indexSlot{}
	ix.n--
	return true
}

// resize rehashes every entry into a fresh table of size slots (a
// power of two).
func (ix *blockIndex) resize(size int) {
	old := ix.slots
	ix.slots = make([]indexSlot, size)
	ix.mask = uint64(size - 1)
	ix.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for i := range old {
		if old[i].used {
			pos, _ := ix.lookup(old[i].id)
			ix.slots[pos] = old[i]
		}
	}
}
