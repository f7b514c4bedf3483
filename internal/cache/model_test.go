package cache

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// The models below restate each policy over plain slices, with no
// index, no slot reuse and no repeat fast path, so they pin what the
// fast paths must leave unchanged.

// model is the slice-backed stand-in for one policy.
type model interface {
	access(id BlockID) bool
	invalidate(id BlockID)
	len() int
}

// lruModel keeps blocks most recent first.
type lruModel struct {
	capacity int
	ids      []BlockID
}

func (m *lruModel) access(id BlockID) bool {
	if i := slices.Index(m.ids, id); i >= 0 {
		m.ids = slices.Insert(slices.Delete(m.ids, i, i+1), 0, id)
		return true
	}
	m.ids = slices.Insert(m.ids, 0, id)
	if len(m.ids) > m.capacity {
		m.ids = m.ids[:m.capacity]
	}
	return false
}

func (m *lruModel) invalidate(id BlockID) {
	if i := slices.Index(m.ids, id); i >= 0 {
		m.ids = slices.Delete(m.ids, i, i+1)
	}
}

func (m *lruModel) len() int { return len(m.ids) }

// fifoModel keeps blocks oldest arrival first.
type fifoModel struct {
	capacity int
	ids      []BlockID
}

func (m *fifoModel) access(id BlockID) bool {
	if slices.Contains(m.ids, id) {
		return true
	}
	if len(m.ids) == m.capacity {
		m.ids = m.ids[1:]
	}
	m.ids = append(m.ids, id)
	return false
}

func (m *fifoModel) invalidate(id BlockID) {
	if i := slices.Index(m.ids, id); i >= 0 {
		m.ids = slices.Delete(m.ids, i, i+1)
	}
}

func (m *fifoModel) len() int { return len(m.ids) }

// clockModel is the ring of buffers with a reference bit each. An
// invalidated buffer stays on the ring, empty, until the hand reuses
// it; valid tells an empty buffer from one holding the zero BlockID.
type clockModel struct {
	capacity int
	bufs     []clockBuf
	hand     int
}

type clockBuf struct {
	id         BlockID
	ref, valid bool
}

func (m *clockModel) find(id BlockID) int {
	return slices.IndexFunc(m.bufs, func(b clockBuf) bool { return b.valid && b.id == id })
}

func (m *clockModel) access(id BlockID) bool {
	if i := m.find(id); i >= 0 {
		m.bufs[i].ref = true
		return true
	}
	if len(m.bufs) < m.capacity {
		m.bufs = append(m.bufs, clockBuf{id: id, valid: true})
		return false
	}
	for m.bufs[m.hand].ref {
		m.bufs[m.hand].ref = false
		m.hand = (m.hand + 1) % len(m.bufs)
	}
	m.bufs[m.hand] = clockBuf{id: id, valid: true}
	m.hand = (m.hand + 1) % len(m.bufs)
	return false
}

func (m *clockModel) invalidate(id BlockID) {
	if i := m.find(id); i >= 0 {
		m.bufs[i] = clockBuf{}
	}
}

func (m *clockModel) len() int {
	n := 0
	for _, b := range m.bufs {
		if b.valid {
			n++
		}
	}
	return n
}

// slruModel keeps each segment most recent first.
type slruModel struct {
	capacity, protCap int
	prob, prot        []BlockID
}

func newSLRUModel(capacity int) *slruModel {
	c := NewSLRU(capacity)
	return &slruModel{capacity: capacity, protCap: c.protCap}
}

func (m *slruModel) access(id BlockID) bool {
	if i := slices.Index(m.prot, id); i >= 0 {
		m.prot = slices.Insert(slices.Delete(m.prot, i, i+1), 0, id)
		return true
	}
	if i := slices.Index(m.prob, id); i >= 0 {
		m.prob = slices.Delete(m.prob, i, i+1)
		if m.protCap == 0 {
			m.prob = slices.Insert(m.prob, 0, id)
			return true
		}
		if len(m.prot) == m.protCap {
			demoted := m.prot[len(m.prot)-1]
			m.prot = m.prot[:len(m.prot)-1]
			m.insertProbationary(demoted)
		}
		m.prot = slices.Insert(m.prot, 0, id)
		return true
	}
	m.insertProbationary(id)
	return false
}

func (m *slruModel) insertProbationary(id BlockID) {
	if len(m.prob)+len(m.prot) >= m.capacity {
		if len(m.prob) == 0 {
			m.prot = m.prot[:len(m.prot)-1]
		} else {
			m.prob = m.prob[:len(m.prob)-1]
		}
	}
	m.prob = slices.Insert(m.prob, 0, id)
}

func (m *slruModel) invalidate(id BlockID) {
	if i := slices.Index(m.prot, id); i >= 0 {
		m.prot = slices.Delete(m.prot, i, i+1)
	}
	if i := slices.Index(m.prob, id); i >= 0 {
		m.prob = slices.Delete(m.prob, i, i+1)
	}
}

func (m *slruModel) len() int { return len(m.prob) + len(m.prot) }

// op is one Access, or one Invalidate when invalidate is set.
type op struct {
	id         BlockID
	invalidate bool
}

// repeatHeavyOps returns n random operations over universe blocks,
// including the zero BlockID. Most accesses repeat the block accessed
// just before, and about one operation in twelve invalidates, half the
// time the block accessed last, so a later repeat re-touches a block
// that was just dropped.
func repeatHeavyOps(rng *rand.Rand, n, universe int) []op {
	ops := make([]op, 0, n)
	var prev BlockID
	for len(ops) < n {
		switch r := rng.IntN(24); {
		case r == 0:
			ops = append(ops, op{id: prev, invalidate: true})
		case r == 1:
			ops = append(ops, op{id: randomID(rng, universe), invalidate: true})
		case r < 16 && len(ops) > 0:
			ops = append(ops, op{id: prev})
		default:
			prev = randomID(rng, universe)
			ops = append(ops, op{id: prev})
		}
	}
	return ops
}

// randomID draws from universe blocks spread over three files; file 0
// block 0 is the zero BlockID, which Clock also uses as its tombstone.
func randomID(rng *rand.Rand, universe int) BlockID {
	k := rng.IntN(universe)
	return BlockID{File: uint64(k % 3), Block: int64(k / 3)}
}

// TestPoliciesMatchModels drives every policy and its slice model with
// the same repeat-heavy Access/Invalidate sequences: every hit, the
// occupancy after every operation, and the final Stats must agree.
func TestPoliciesMatchModels(t *testing.T) {
	policies := []struct {
		name  string
		cache func(int) Cache
		model func(int) model
	}{
		{"LRU", func(n int) Cache { return NewLRU(n) }, func(n int) model { return &lruModel{capacity: n} }},
		{"FIFO", func(n int) Cache { return NewFIFO(n) }, func(n int) model { return &fifoModel{capacity: n} }},
		{"Clock", func(n int) Cache { return NewClock(n) }, func(n int) model { return &clockModel{capacity: n} }},
		{"SLRU", func(n int) Cache { return NewSLRU(n) }, func(n int) model { return newSLRUModel(n) }},
	}
	rng := rand.New(rand.NewPCG(16, 4))
	for _, p := range policies {
		for _, capacity := range []int{1, 2, 3, 5, 8, 17} {
			t.Run(fmt.Sprintf("%s/%d", p.name, capacity), func(t *testing.T) {
				for trial := 0; trial < 20; trial++ {
					ops := repeatHeavyOps(rng, 600, 4*capacity+2)
					c, m := p.cache(capacity), p.model(capacity)
					var want Stats
					for i, o := range ops {
						if o.invalidate {
							c.Invalidate(o.id)
							m.invalidate(o.id)
						} else {
							got, exp := c.Access(o.id), m.access(o.id)
							want.Accesses++
							if exp {
								want.Hits++
							}
							if got != exp {
								t.Fatalf("trial %d op %d: Access(%v) = %v, model %v", trial, i, o.id, got, exp)
							}
						}
						if c.Len() != m.len() {
							t.Fatalf("trial %d op %d: Len = %d, model %d", trial, i, c.Len(), m.len())
						}
					}
					if c.Stats() != want {
						t.Fatalf("trial %d: Stats = %+v, model %+v", trial, c.Stats(), want)
					}
				}
			})
		}
	}
}

// TestRepeatAfterInvalidateMisses pins the case the fast paths must
// not answer: the block touched last is invalidated, and touching it
// again is a miss.
func TestRepeatAfterInvalidateMisses(t *testing.T) {
	for _, c := range []Cache{NewLRU(4), NewFIFO(4), NewClock(4), NewSLRU(4)} {
		for _, b := range []BlockID{{}, id(1, 7)} {
			c.Access(b)
			c.Access(b)
			c.Access(b)
			c.Invalidate(b)
			if c.Access(b) {
				t.Errorf("%s: %v hit after its invalidation", c.Name(), b)
			}
		}
	}
}

// TestClockTombstoneIsNotZeroBlock: an invalidated Clock buffer holds
// the zero BlockID as a tombstone, which a later access to the genuine
// zero block must not mistake for a resident copy.
func TestClockTombstoneIsNotZeroBlock(t *testing.T) {
	c := NewClock(3)
	c.Access(id(2, 5))
	c.Invalidate(id(2, 5))
	if c.Access(BlockID{}) {
		t.Fatal("zero BlockID hit a tombstone")
	}
	if !c.Access(BlockID{}) || c.Len() != 1 {
		t.Fatalf("zero BlockID not resident after its miss (len %d)", c.Len())
	}
}
