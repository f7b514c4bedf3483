package cache

import (
	"math/bits"
	"math/rand/v2"
	"testing"
)

// checkIndex verifies the table's structural invariants against the
// slot space ids: the occupancy count matches the used slots, the table
// is at most half full, no policy slot is held twice, each entry's tag
// is the tag of the block its policy slot holds, and every entry sits
// in an unbroken probe run from the home its tag gives, the tag's top
// log2(len(slots)) bits (what resize and backward-shift deletion must
// preserve, reading no id).
func checkIndex(t *testing.T, ix *blockIndex, ids []BlockID) {
	t.Helper()
	used := 0
	held := make(map[int32]bool)
	sizeBits := bits.TrailingZeros(uint(len(ix.slots)))
	for pos := range ix.slots {
		s := ix.slots[pos]
		if s.ref == 0 {
			continue
		}
		used++
		v := s.val()
		if held[v] {
			t.Fatalf("policy slot %d held twice", v)
		}
		held[v] = true
		if want := ix.tag(ids[v]); s.tag != want {
			t.Fatalf("entry at %d for slot %d (%v) has tag %#x, want %#x", pos, v, ids[v], s.tag, want)
		}
		home := uint64(s.tag) >> (32 - sizeBits)
		for p := home; p != uint64(pos); p = (p + 1) & ix.mask {
			if ix.slots[p].ref == 0 {
				t.Fatalf("entry %v at %d unreachable from home %d: empty slot %d", ids[v], pos, home, p)
			}
		}
	}
	if used != ix.n {
		t.Fatalf("%d used slots, count says %d", used, ix.n)
	}
	if 2*ix.n > len(ix.slots) {
		t.Fatalf("%d entries in %d slots: more than half full", ix.n, len(ix.slots))
	}
}

// indexHarness drives a blockIndex the way a policy does: each
// resident block holds a slot of ids, freed slots are reused, and a
// map is the reference for which block holds which slot.
type indexHarness struct {
	ix   blockIndex
	ids  []BlockID
	free []int32
	ref  map[BlockID]int32
}

func newIndexHarness(seed uint64) *indexHarness {
	h := &indexHarness{ix: newBlockIndex(0), ref: make(map[BlockID]int32)}
	h.ix.seed = seed
	return h
}

// put inserts id if absent.
func (h *indexHarness) put(id BlockID) {
	if _, ok := h.ref[id]; ok {
		return
	}
	var v int32
	if n := len(h.free); n > 0 {
		v, h.free = h.free[n-1], h.free[:n-1]
		h.ids[v] = id
	} else {
		v = int32(len(h.ids))
		h.ids = append(h.ids, id)
	}
	h.ix.insert(id, v)
	h.ref[id] = v
}

// remove deletes id if present; the freed slot keeps its stale id, as
// a policy's does.
func (h *indexHarness) remove(t *testing.T, id BlockID) {
	t.Helper()
	v, want := h.ref[id]
	if !want {
		// No entry holds id: a free slot, or none, finds nothing.
		v = int32(len(h.ids))
		if n := len(h.free); n > 0 {
			v = h.free[n-1]
		}
	}
	if got := h.ix.remove(id, v); got != want {
		t.Fatalf("remove(%v, %d) = %v, want %v", id, v, got, want)
	}
	if want {
		delete(h.ref, id)
		h.free = append(h.free, v)
	}
}

// check compares find for id with the map.
func (h *indexHarness) check(t *testing.T, id BlockID) {
	t.Helper()
	want, wantOK := h.ref[id]
	pos, ok := h.ix.find(id, h.ids)
	if ok != wantOK || (ok && h.ix.slots[pos].val() != want) {
		t.Fatalf("find(%v) = %d,%v (slot %d), want slot %d,%v", id, pos, ok, h.ix.slots[pos].val(), want, wantOK)
	}
	if !ok && h.ix.slots[pos].ref != 0 {
		t.Fatalf("find(%v) missed at occupied position %d", id, pos)
	}
}

// TestBlockIndexMatchesMap drives a blockIndex and a Go map through
// the same random insert/get/remove sequences. Keys come from a few
// files and a narrow block range, so the tables stay small, probe runs
// wrap past the end of the slot array, and the table grows several
// times; removals interleave with growth so backward shifts cross the
// wrap point too. Fixed hash seeds (including the all-zero and
// all-ones extremes) make any failure reproducible.
func TestBlockIndexMatchesMap(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef, ^uint64(0)} {
		for _, keys := range []int{6, 24, 200} {
			rng := rand.New(rand.NewPCG(seed, uint64(keys)))
			h := newIndexHarness(seed)
			maxSlots := 0
			for step := 0; step < 20000; step++ {
				k := rng.IntN(keys)
				bid := BlockID{File: uint64(k % 3), Block: int64(k / 3)}
				switch op := rng.IntN(10); {
				case op < 5:
					h.put(bid)
				case op < 8:
					h.remove(t, bid)
				default:
					h.check(t, bid)
				}
				if h.ix.n != len(h.ref) {
					t.Fatalf("seed %d step %d: %d entries, map has %d", seed, step, h.ix.n, len(h.ref))
				}
				maxSlots = max(maxSlots, len(h.ix.slots))
				if step%97 == 0 {
					checkIndex(t, &h.ix, h.ids)
				}
			}
			checkIndex(t, &h.ix, h.ids)
			for k := 0; k < keys; k++ {
				h.check(t, BlockID{File: uint64(k % 3), Block: int64(k / 3)})
			}
			if keys > minIndexSlots/2 && maxSlots == minIndexSlots {
				t.Fatalf("seed %d keys %d: table never grew past %d slots", seed, keys, minIndexSlots)
			}
		}
	}
}

// TestBlockIndexWrapsProbeRuns pins the wrap-around paths directly: a
// full-table-width cluster is built from keys whose home is the last
// slot, then removed from the front so every backward shift crosses
// the end of the slot array.
func TestBlockIndexWrapsProbeRuns(t *testing.T) {
	h := newIndexHarness(7)
	var last []BlockID
	for b := int64(0); len(last) < minIndexSlots/2; b++ {
		if bid := (BlockID{File: 1, Block: b}); h.ix.home(h.ix.tag(bid)) == h.ix.mask {
			last = append(last, bid)
		}
	}
	for _, bid := range last {
		h.put(bid)
	}
	if len(h.ix.slots) != minIndexSlots {
		t.Fatalf("table grew to %d slots at half full", len(h.ix.slots))
	}
	checkIndex(t, &h.ix, h.ids)
	for i, bid := range last {
		h.remove(t, bid)
		checkIndex(t, &h.ix, h.ids)
		for _, rest := range last {
			h.check(t, rest)
		}
		if h.ix.n != len(last)-i-1 {
			t.Fatalf("after removing %d entries, %d left", i+1, h.ix.n)
		}
	}
}

// Multipliers of blockIndex.tag's hash.
const (
	tagMulFile  = 0x9e3779b97f4a7c15
	tagMulBlock = 0xd6e8feb86659fd93
)

// tagColliders returns n distinct blocks, on files cycling through
// files, whose hashes under seed are x, x+1, ..., x+n-1, so they share
// x's tag whenever x's low 32 bits leave room. The block's term enters
// the hash before the last multiplication, so it is solved through the
// multiplier's inverse modulo 2^64.
func tagColliders(seed, x uint64, n int, files []uint64) []BlockID {
	inv := uint64(tagMulBlock) // Newton's iteration doubles the correct low bits
	for i := 0; i < 5; i++ {
		inv *= 2 - tagMulBlock*inv
	}
	ids := make([]BlockID, n)
	for k := range ids {
		f := files[k%len(files)]
		ids[k] = BlockID{File: f, Block: int64((x+uint64(k))*inv - (f^seed)*tagMulFile)}
	}
	return ids
}

// TestBlockIndexTagCollisions: distinct blocks whose tags are equal
// share a home at every table size, so they pile into one probe run.
// Every lookup must still tell them apart by id, through inserts, the
// backward shifts of removals from the middle of the run, and two
// resizes. The groups include the zero BlockID, blocks near 0 and near
// ±2^63, and blocks of other files with the same home but another tag.
func TestBlockIndexTagCollisions(t *testing.T) {
	seed := uint64(0x5eed)
	files := []uint64{0, 1, 2, ^uint64(0)}
	group := tagColliders(seed, 0x7fffffff_00000000, 10, files)
	// The zero BlockID, whose hash is seed*tagMulFile*tagMulBlock, and
	// three blocks of other files that continue it.
	zeroGroup := append([]BlockID{{}}, tagColliders(seed, seed*tagMulFile*tagMulBlock+1, 3, files[1:])...)
	h := newIndexHarness(seed)
	for _, g := range [][]BlockID{group, zeroGroup} {
		for _, id := range g[1:] {
			if h.ix.tag(id) != h.ix.tag(g[0]) || id == g[0] {
				t.Fatalf("%v and %v: tags %#x, %#x; the test needs distinct ids with equal tags",
					g[0], id, h.ix.tag(g[0]), h.ix.tag(id))
			}
		}
	}
	// Blocks near 0 and ±2^63 whose tags differ from the group's but
	// whose home, at the sizes this test reaches, is the group's.
	var neighbours []BlockID
	for b := int64(-1 << 20); len(neighbours) < 6; b++ {
		for _, base := range []int64{0, -1 << 63, 1<<63 - 1<<21} {
			id := BlockID{File: 3, Block: base + b}
			if tg := h.ix.tag(id); tg != h.ix.tag(group[0]) && tg>>26 == h.ix.tag(group[0])>>26 {
				neighbours = append(neighbours, id)
			}
		}
	}
	all := append(append(append([]BlockID{}, group...), zeroGroup...), neighbours...)
	checkAll := func(step string) {
		t.Helper()
		for _, id := range all {
			h.check(t, id)
		}
		checkIndex(t, &h.ix, h.ids)
		if h.ix.n != len(h.ref) {
			t.Fatalf("%s: %d entries, map has %d", step, h.ix.n, len(h.ref))
		}
	}
	// Every other collider first, so the rest are absent blocks whose
	// tag matches a resident one.
	for i := 0; i < len(group); i += 2 {
		h.put(group[i])
		checkAll("insert even")
	}
	h.put(zeroGroup[1])
	h.put(neighbours[0])
	checkAll("insert zero collider")
	for i := 1; i < len(group); i += 2 {
		h.put(group[i])
		checkAll("insert odd")
	}
	grown := len(h.ix.slots)
	for _, id := range []BlockID{group[3], group[0], group[8], zeroGroup[1]} {
		h.remove(t, id)
		checkAll("remove")
	}
	for _, id := range append(append([]BlockID{}, zeroGroup...), neighbours...) {
		h.put(id)
		checkAll("insert neighbours")
	}
	for _, id := range group {
		h.remove(t, id)
		checkAll("remove group")
		h.put(id)
		checkAll("reinsert group")
	}
	if len(h.ix.slots) <= grown || grown <= minIndexSlots {
		t.Fatalf("table went %d -> %d -> %d slots; the test needs two resizes", minIndexSlots, grown, len(h.ix.slots))
	}
}

// TestLRUIndexPresized: an LRU cache's index starts at the size its
// full cache needs, up to maxPresizedSlots, so filling the cache and
// churning it never grows the table below that cap.
func TestLRUIndexPresized(t *testing.T) {
	for _, capacity := range []int{1, 3, 4, 5, 768, 4096, maxPresizedSlots / 2, maxPresizedSlots} {
		c := NewLRU(capacity)
		start := len(c.index.slots)
		for b := int64(0); b < int64(2*capacity); b++ {
			c.Access(BlockID{File: 1, Block: b})
		}
		if got := len(c.index.slots); capacity <= maxPresizedSlots/2 && got != start {
			t.Errorf("capacity %d: index grew from %d to %d slots", capacity, start, got)
		}
		if (start < 2*capacity && start != maxPresizedSlots) || (start/2 >= 2*capacity && start != minIndexSlots) {
			t.Errorf("capacity %d: index starts at %d slots", capacity, start)
		}
	}
	if got := len(NewFIFO(4096).index.slots); got != minIndexSlots {
		t.Errorf("a FIFO cache's index starts at %d slots, want %d", got, minIndexSlots)
	}
}
