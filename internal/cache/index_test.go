package cache

import (
	"math/rand/v2"
	"testing"
)

// checkIndex verifies the table's structural invariants: the occupancy
// count matches the used slots, the table is at most half full, and
// every entry sits in an unbroken probe run from its home position
// (what backward-shift deletion must preserve in place of tombstones).
func checkIndex(t *testing.T, ix *blockIndex) {
	t.Helper()
	used := 0
	for pos := range ix.slots {
		s := &ix.slots[pos]
		if !s.used {
			continue
		}
		used++
		for p := ix.home(s.id); p != uint64(pos); p = (p + 1) & ix.mask {
			if !ix.slots[p].used {
				t.Fatalf("entry %v at %d unreachable from home %d: empty slot %d",
					s.id, pos, ix.home(s.id), p)
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

// TestBlockIndexMatchesMap drives a blockIndex and a Go map through
// the same random put/get/remove sequences. Keys come from a few
// files and a narrow block range, so the tables stay small, probe runs
// wrap past the end of the slot array, and the table grows several
// times; removals interleave with growth so backward shifts cross the
// wrap point too. Fixed hash seeds (including the all-zero and
// all-ones extremes) make any failure reproducible.
func TestBlockIndexMatchesMap(t *testing.T) {
	type value struct {
		val  int32
		flag bool
	}
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef, ^uint64(0)} {
		for _, keys := range []int{6, 24, 200} {
			rng := rand.New(rand.NewPCG(seed, uint64(keys)))
			ix := newBlockIndex()
			ix.seed = seed
			ref := make(map[BlockID]value)
			maxSlots := 0
			for step := 0; step < 20000; step++ {
				k := rng.IntN(keys)
				bid := BlockID{File: uint64(k % 3), Block: int64(k / 3)}
				switch op := rng.IntN(10); {
				case op < 5:
					v := value{val: rng.Int32(), flag: rng.IntN(2) == 0}
					ix.put(bid, v.val, v.flag)
					ref[bid] = v
				case op < 8:
					got, want := ix.remove(bid), false
					if _, want = ref[bid]; want {
						delete(ref, bid)
					}
					if got != want {
						t.Fatalf("seed %d step %d: remove(%v) = %v, want %v", seed, step, bid, got, want)
					}
				default:
					val, flag, ok := ix.get(bid)
					want, wantOK := ref[bid]
					if ok != wantOK || (ok && (val != want.val || flag != want.flag)) {
						t.Fatalf("seed %d step %d: get(%v) = %d,%v,%v, want %d,%v,%v",
							seed, step, bid, val, flag, ok, want.val, want.flag, wantOK)
					}
				}
				if ix.n != len(ref) {
					t.Fatalf("seed %d step %d: %d entries, map has %d", seed, step, ix.n, len(ref))
				}
				maxSlots = max(maxSlots, len(ix.slots))
				if step%97 == 0 {
					checkIndex(t, &ix)
				}
			}
			checkIndex(t, &ix)
			for bid, want := range ref {
				if val, flag, ok := ix.get(bid); !ok || val != want.val || flag != want.flag {
					t.Fatalf("seed %d: final get(%v) = %d,%v,%v, want %d,%v", seed, bid, val, flag, ok, want.val, want.flag)
				}
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
	ix := newBlockIndex()
	ix.seed = 7
	var last []BlockID
	for b := int64(0); len(last) < minIndexSlots/2; b++ {
		if bid := (BlockID{File: 1, Block: b}); ix.home(bid) == ix.mask {
			last = append(last, bid)
		}
	}
	for i, bid := range last {
		ix.put(bid, int32(i), false)
	}
	if len(ix.slots) != minIndexSlots {
		t.Fatalf("table grew to %d slots at half full", len(ix.slots))
	}
	checkIndex(t, &ix)
	for i, bid := range last {
		if !ix.remove(bid) {
			t.Fatalf("remove(%v) missed", bid)
		}
		checkIndex(t, &ix)
		for j, rest := range last[i+1:] {
			if val, _, ok := ix.get(rest); !ok || val != int32(i+1+j) {
				t.Fatalf("after removing %d entries, get(%v) = %d,%v", i+1, rest, val, ok)
			}
		}
	}
	if ix.n != 0 {
		t.Fatalf("%d entries left", ix.n)
	}
}
