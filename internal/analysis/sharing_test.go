package analysis

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// randomSharedFile returns random requests against file 1 from 1-8
// nodes: plain and strided reads and writes, zero and negative sizes,
// ranges inside one block, ranges that overlap or start where an earlier
// one ended, negative offsets, and requests that run past MaxInt64 and
// saturate there. Offsets stay inside two windows a few thousand bytes
// wide, so the per-block reference stays cheap.
func randomSharedFile(rng *rand.Rand, bb int64) []trace.Event {
	var events []trace.Event
	nodes := 1 + rng.IntN(8)
	windows := []int64{-100, math.MaxInt64 - 3000}
	ends := []int64{0}
	for i, n := 0, 1+rng.IntN(24); i < n; i++ {
		node := uint16(rng.IntN(nodes))
		top := rng.IntN(4) == 0
		off := windows[0] + rng.Int64N(2000)
		if top {
			off = windows[1] + rng.Int64N(2000)
		}
		if rng.IntN(3) == 0 {
			off = ends[rng.IntN(len(ends))] // adjacent to an earlier range
		}
		var size int64
		switch k := rng.IntN(10); {
		case k == 0:
			size = 0
		case k == 1:
			size = -1 - rng.Int64N(10)
		case k <= 4:
			size = 1 + rng.Int64N(bb) // inside one or two blocks
		case k == 5 && off > windows[1]:
			size = math.MaxInt64 // saturates at the end of the offset space
		default:
			size = 1 + rng.Int64N(300)
		}
		if end := off + size; size > 0 && end < off {
			ends = append(ends, math.MaxInt64)
		} else if size > 0 {
			ends = append(ends, end)
		}
		ev := trace.Event{Type: trace.EvRead, Node: node, File: 1, Offset: off, Size: size}
		if rng.IntN(2) == 0 {
			ev.Type = trace.EvWrite
		}
		if rng.IntN(5) == 0 {
			ev.Type = trace.EvReadStrided + trace.EventType(rng.IntN(2))
			ev.Size = rng.Int64N(60)
			ev.Stride = rng.Int64N(140) - 20
			ev.Count = uint32(rng.IntN(7))
		}
		events = append(events, ev)
	}
	return events
}

// TestSharingMatchesReference checks Figure 7's sharing of 20,000
// random files against the per-block reference, each file analyzed on
// a state pooled across the files and with fresh edge buffers.
func TestSharingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 7))
	pooled := &Scratch{}
	shared := 0
	for i := 0; i < 20000; i++ {
		bb := 1 + rng.Int64N(64)
		h := trace.Header{BlockBytes: uint32(bb)}
		events := randomSharedFile(rng, bb)
		o, ref := OnlineInto(pooled, h), newRefOnline(h)
		for j := range events {
			o.Observe(&events[j])
			ref.Observe(&events[j])
		}
		if _, wantBlock, wantOK := referenceSharing(ref.files[1], bb); wantOK && wantBlock > 0 {
			shared++
		}
		if err := compareSharing(o, &o.st.files[0], ref.files[1]); err != nil {
			t.Fatalf("random file %d (block %d B): %v", i, bb, err)
		}
	}
	if shared < 5000 {
		t.Fatalf("only %d of 20000 random files share a block", shared)
	}
}

// TestSharingHugeRequests is the crafted-input regression: requests
// spanning 2^60 bytes, or ending exactly at 2^63 under a 1-byte block,
// cost the sweep no more than small ones, and a range end that would
// wrap saturates at MaxInt64 instead.
func TestSharingHugeRequests(t *testing.T) {
	for _, c := range []struct {
		name      string
		h         trace.Header
		off, size int64
	}{
		{"2^60-byte read", header(), 0, 1 << 60},
		{"read ending at 2^63", trace.Header{BlockBytes: 1}, math.MaxInt64 - 99, 100},
	} {
		b := &evb{}
		b.open(1, 0, 1, 0).open(1, 1, 1, 0)
		b.read(1, 0, 1, c.off, c.size).read(1, 1, 1, c.off, c.size)
		b.close(1, 0, 1, 0).close(1, 1, 1, 0)
		done := make(chan *Report, 1)
		go func() { done <- Analyze(c.h, b.events, 0) }()
		var r *Report
		select {
		case r = <-done:
		case <-time.After(time.Second):
			t.Fatalf("%s: Analyze still running after 1s", c.name)
		}
		for unit, cdf := range map[string]*stats.CDF{"byte": r.ByteSharing[ReadOnly], "block": r.BlockSharing[ReadOnly]} {
			if cdf.Len() != 1 || cdf.Min() != 100 {
				t.Errorf("%s: %d %s-sharing samples, min %v%%; want one at 100%%", c.name, cdf.Len(), unit, cdf.Min())
			}
		}
	}
}

// TestOpenNodesRunningCount checks the running count of nodes holding a
// file open against a scan of every node's handle count, for random
// opens and closes, closes without a matching open included.
func TestOpenNodesRunningCount(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 9))
	for i := 0; i < 2000; i++ {
		o := NewOnline(header())
		handles := map[uint16]int{}
		want := 0
		for j, n := 0, rng.IntN(40); j < n; j++ {
			ev := trace.Event{Type: trace.EvOpen, Node: uint16(rng.IntN(5)), File: 1}
			if rng.IntN(2) == 0 {
				ev.Type = trace.EvClose
				handles[ev.Node]--
			} else {
				handles[ev.Node]++
				open := 0
				for _, h := range handles {
					if h > 0 {
						open++
					}
				}
				want = max(want, open)
			}
			o.Observe(&ev)
		}
		got := 0
		if len(o.st.files) > 0 {
			got = o.st.files[0].maxOpenNodes
		}
		if got != want {
			t.Fatalf("sequence %d: maxOpenNodes = %d, want %d", i, got, want)
		}
	}
}
