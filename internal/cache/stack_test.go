package cache

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// mtfDistance is the naive O(n) stack: a move-to-front list whose
// position gives the distance, 0 for a block not in the list.
func mtfDistance(list []BlockID, id BlockID) (int, []BlockID) {
	i := slices.Index(list, id)
	if i < 0 {
		return 0, slices.Insert(list, 0, id)
	}
	return i + 1, slices.Insert(slices.Delete(list, i, i+1), 0, id)
}

// TestStackMatchesMoveToFront checks every distance against the naive
// list, cut to the stack's depth, on repeat-heavy random streams over
// small and large block sets, long enough for the Fenwick tree to be
// compacted many times.
func TestStackMatchesMoveToFront(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 70))
	for _, universe := range []int{1, 2, 5, 40, 700} {
		for _, depth := range []int{1, 3, 64, 1 << 40} {
			s := NewStack(depth)
			var list []BlockID
			var prev BlockID
			for i := 0; i < 5000; i++ {
				if i == 0 || rng.IntN(3) == 0 {
					prev = randomID(rng, universe)
				}
				var want int
				want, list = mtfDistance(list, prev)
				if len(list) > depth {
					list = list[:depth]
				}
				if got := s.Access(prev); got != want {
					t.Fatalf("universe %d depth %d access %d (%v): distance %d, want %d", universe, depth, i, prev, got, want)
				}
			}
		}
	}
}

// TestStackDistanceGivesLRUHits: an LRU cache of capacity c hits
// exactly the accesses at distance 1..c, on a stack at least c deep.
func TestStackDistanceGivesLRUHits(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 1))
	ids := make([]BlockID, 3000)
	for i := range ids {
		ids[i] = randomID(rng, 60)
		if i > 0 && rng.IntN(2) == 0 {
			ids[i] = ids[i-1]
		}
	}
	for _, capacity := range []int{1, 2, 7, 30, 60, 100} {
		s, c := NewStack(capacity+rng.IntN(3)), NewLRU(capacity)
		for i, id := range ids {
			d := s.Access(id)
			if hit := c.Access(id); hit != (d >= 1 && d <= capacity) {
				t.Fatalf("capacity %d access %d: LRU hit %v at distance %d", capacity, i, hit, d)
			}
		}
	}
}
