package cache

import (
	"fmt"
	"math"
	"math/bits"
)

// Stack measures LRU stack distances over one stream of block
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
type Stack struct {
	depth  int32
	index  blockIndex // block -> time of its last access, confirmed by ids
	tree   []int32    // Fenwick tree over times; tree[0] is unused
	ids    []BlockID  // ids[t]: the block accessed at time t
	live   []uint64   // bit t: time t is the last access of a block on the stack
	oldest int32      // no block on the stack was last accessed before this time
	n      int32      // blocks on the stack
	ones   int32      // 1s in the tree: n plus the forgotten blocks'
	last   BlockID    // the block accessed last
}

// NewStack returns an empty stack that tracks distances up to depth.
func NewStack(depth int) *Stack {
	if depth <= 0 {
		panic(fmt.Sprintf("cache: non-positive Stack depth %d", depth))
	}
	return &Stack{
		depth:  int32(min(depth, math.MaxInt32)),
		index:  newBlockIndex(0),
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
func (s *Stack) Access(id BlockID) int {
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
	pos, ok := s.index.find(id, s.ids)
	if !ok {
		if s.n == s.depth {
			s.forgetDeepest()
		}
		s.n++
		s.ones++
		s.push(id)
		s.index.insert(id, now)
		return 0
	}
	slot := &s.index.slots[pos]
	then := slot.val()
	slot.set(now)
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
func (s *Stack) forgetDeepest() {
	for s.live[s.oldest/64]>>(s.oldest%64) == 0 {
		s.oldest = (s.oldest/64 + 1) * 64
	}
	s.oldest += int32(bits.TrailingZeros64(s.live[s.oldest/64] >> (s.oldest % 64)))
	s.live[s.oldest/64] &^= 1 << (s.oldest % 64)
	s.index.remove(s.ids[s.oldest], s.oldest)
	s.n--
}

// prefix returns the number of 1s at time t or earlier.
func (s *Stack) prefix(t int32) int32 {
	var n int32
	for ; t > 0; t -= t & -t {
		n += s.tree[t]
	}
	return n
}

// push appends the next time, an access to id, with a 1 at it. A
// Fenwick node i sums the times (i - lowbit(i), i], so its value is
// the new 1 plus the nodes already built under it.
func (s *Stack) push(id BlockID) {
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
// 1s, which all come first. The index entries take their new times
// first, while the tree still counts the old ones; then the ids move
// down in time order, each to a time no later than its own, so none
// is overwritten before it moves. Distances depend only on the order
// of last accesses, so none changes. The caller compacts only when at
// least half the tree is stale, so the cost is amortized O(1) per
// access.
func (s *Stack) compact() {
	forgotten := s.ones - s.n
	for p := range s.index.slots {
		if slot := &s.index.slots[p]; slot.ref != 0 {
			slot.set(s.prefix(slot.val()) - forgotten)
		}
	}
	rank := int32(0)
	for w, word := range s.live {
		for ; word != 0; word &= word - 1 {
			rank++
			s.ids[rank] = s.ids[int32(w*64+bits.TrailingZeros64(word))]
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
