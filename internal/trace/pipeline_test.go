package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// fakeClock is a settable clock for tests.
type fakeClock struct{ t sim.Time }

func (c *fakeClock) Now() sim.Time { return c.t }

func testHeader() Header {
	return Header{ComputeNodes: 128, IONodes: 10, BlockBytes: 4096, BufferBytes: 4096, Seed: 1}
}

func TestNodeBufferFlushesWhenFull(t *testing.T) {
	clk := &fakeClock{}
	var blocks []Block
	limit := DefaultBufferBytes / EventSize
	b := NewNodeBuffer(3, clk, DefaultBufferBytes, new(Arena), func(blk Block) { blocks = append(blocks, blk) })
	for i := 0; i < limit; i++ {
		clk.t += 10
		b.Record(Event{Type: EvRead, File: 1, Size: 100})
	}
	if len(blocks) != 1 {
		t.Fatalf("expected 1 flush after %d records, got %d", limit, len(blocks))
	}
	if len(blocks[0].Events) != limit {
		t.Fatalf("block has %d events", len(blocks[0].Events))
	}
	if blocks[0].Node != 3 {
		t.Fatalf("block node = %d", blocks[0].Node)
	}
	if b.Recorded() != int64(limit) || b.Flushes() != 1 {
		t.Fatalf("counters: recorded=%d flushes=%d", b.Recorded(), b.Flushes())
	}
}

func TestNodeBufferStampsNodeAndTime(t *testing.T) {
	clk := &fakeClock{t: 777}
	var got Block
	b := NewNodeBuffer(9, clk, EventSize, new(Arena), func(blk Block) { got = blk })
	b.Record(Event{Type: EvOpen, Node: 55, Time: 1}) // stamps override caller values
	if len(got.Events) != 1 {
		t.Fatal("tiny buffer should flush immediately")
	}
	if got.Events[0].Node != 9 || got.Events[0].Time != 777 {
		t.Fatalf("stamping wrong: %+v", got.Events[0])
	}
}

func TestNodeBufferManualFlush(t *testing.T) {
	clk := &fakeClock{}
	flushed := 0
	b := NewNodeBuffer(0, clk, DefaultBufferBytes, new(Arena), func(Block) { flushed++ })
	b.Flush() // empty: no-op
	if flushed != 0 {
		t.Fatal("empty flush shipped a block")
	}
	b.Record(Event{Type: EvRead})
	b.Flush()
	if flushed != 1 {
		t.Fatalf("flushes = %d", flushed)
	}
}

func TestBufferingReducesMessages(t *testing.T) {
	// The paper: buffering cut trace messages by >90%. One block per
	// ~99 records vs one per record.
	clk := &fakeClock{}
	blocks := 0
	b := NewNodeBuffer(0, clk, DefaultBufferBytes, new(Arena), func(Block) { blocks++ })
	const records = 10000
	for i := 0; i < records; i++ {
		b.Record(Event{Type: EvRead})
	}
	b.Flush()
	if frac := float64(blocks) / records; frac > 0.05 {
		t.Fatalf("buffering sent %d messages for %d records (%.1f%%)", blocks, records, 100*frac)
	}
}

func TestCollectorStampsArrival(t *testing.T) {
	clk := &fakeClock{t: 5000}
	c := NewCollector(clk, testHeader(), new(Arena))
	c.Deliver(Block{Node: 1, SendLocal: 4000, Events: []Event{{Type: EvRead}}})
	clk.t = 6000
	c.Deliver(Block{Node: 2, SendLocal: 4500, Events: []Event{{Type: EvWrite}}})
	blocks := c.Blocks()
	if blocks[0].RecvCollector != 5000 || blocks[1].RecvCollector != 6000 {
		t.Fatalf("arrival stamps: %d, %d", blocks[0].RecvCollector, blocks[1].RecvCollector)
	}
	if c.EventCount() != 2 {
		t.Fatalf("event count = %d", c.EventCount())
	}
	if c.Header() != testHeader() {
		t.Fatal("header mismatch")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	tr := &Trace{
		Header: testHeader(),
		Blocks: []Block{
			{Node: 1, SendLocal: 100, RecvCollector: 150, Events: []Event{
				{Time: 10, Type: EvOpen, File: 7, Job: 3, Node: 1, Mode: 0, Flags: FlagRead},
				{Time: 20, Type: EvRead, File: 7, Job: 3, Node: 1, Offset: 0, Size: 1024},
			}},
			{Node: 2, SendLocal: 130, RecvCollector: 170, Events: []Event{
				{Time: 15, Type: EvWrite, File: 8, Job: 3, Node: 2, Offset: 4096, Size: 4096},
			}},
			{Node: 1, SendLocal: 300, RecvCollector: 340, Events: nil},
		},
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != tr.Header {
		t.Fatalf("header: %+v vs %+v", got.Header, tr.Header)
	}
	if len(got.Blocks) != len(tr.Blocks) {
		t.Fatalf("blocks: %d vs %d", len(got.Blocks), len(tr.Blocks))
	}
	for i := range tr.Blocks {
		a, b := got.Blocks[i], tr.Blocks[i]
		if a.Node != b.Node || a.SendLocal != b.SendLocal || a.RecvCollector != b.RecvCollector {
			t.Fatalf("block %d header mismatch", i)
		}
		if len(a.Events) != len(b.Events) {
			t.Fatalf("block %d: %d vs %d events", i, len(a.Events), len(b.Events))
		}
		for j := range b.Events {
			if a.Events[j] != b.Events[j] {
				t.Fatalf("block %d event %d: %+v vs %+v", i, j, a.Events[j], b.Events[j])
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace file at all......"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReadRejectsTruncatedBlock(t *testing.T) {
	tr := &Trace{Header: testHeader(), Blocks: []Block{
		{Node: 1, Events: []Event{{Type: EvRead}, {Type: EvWrite}}},
	}}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)-10])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestFitClocksRecoverOffsetAndDrift(t *testing.T) {
	// Node 1's clock: local = (collector - 1000) * (1/1.0005),
	// i.e. collector = 1000 + 1.0005*local. Delivery delay is a
	// constant 50 on top.
	tr := &Trace{Header: testHeader()}
	for i := 0; i < 20; i++ {
		local := int64(i) * 1_000_000
		collector := 1000 + int64(1.0005*float64(local)) + 50
		tr.Blocks = append(tr.Blocks, Block{Node: 1, SendLocal: local, RecvCollector: collector})
	}
	fit := FitClocks(tr)[1]
	if fit.Slope < 1.0004 || fit.Slope > 1.0006 {
		t.Fatalf("slope = %v, want ~1.0005", fit.Slope)
	}
	// Offset should absorb the constant base offset plus delivery delay.
	if fit.Offset < 900 || fit.Offset > 1200 {
		t.Fatalf("offset = %v, want ~1050", fit.Offset)
	}
}

func TestFitClocksSingleBlockFallsBackToOffset(t *testing.T) {
	tr := &Trace{Header: testHeader(), Blocks: []Block{
		{Node: 4, SendLocal: 1000, RecvCollector: 2500},
	}}
	fit := FitClocks(tr)[4]
	if fit.Slope != 1 {
		t.Fatalf("slope = %v, want 1 with a single sample", fit.Slope)
	}
	if fit.Offset != 1500 {
		t.Fatalf("offset = %v, want 1500", fit.Offset)
	}
}

func TestFitClocksRejectsDegenerateSlope(t *testing.T) {
	// Two blocks sent at (nearly) the same local time but received far
	// apart would fit a wild slope; the fit must fall back to offset.
	tr := &Trace{Header: testHeader(), Blocks: []Block{
		{Node: 2, SendLocal: 1000, RecvCollector: 10000},
		{Node: 2, SendLocal: 1001, RecvCollector: 90000},
	}}
	fit := FitClocks(tr)[2]
	if fit.Slope != 1 {
		t.Fatalf("slope = %v, want fallback 1", fit.Slope)
	}
}

func TestPostprocessOrdersAcrossDriftingNodes(t *testing.T) {
	// Two nodes with different clock offsets; true event order
	// alternates between them. Raw sorting interleaves wrongly;
	// corrected sorting recovers the true order.
	tr := &Trace{Header: testHeader()}
	// Node 1's local clock = true + 0; node 2's local = true - 100000.
	// True times: node1 events at 1000, 3000, ...; node2 at 2000, 4000...
	var n1, n2 []Event
	for i := 0; i < 10; i++ {
		trueT := int64(1000 + 2000*i)
		n1 = append(n1, Event{Type: EvRead, Node: 1, Time: trueT, File: uint64(trueT)})
		trueT = int64(2000 + 2000*i)
		n2 = append(n2, Event{Type: EvWrite, Node: 2, Time: trueT - 100000, File: uint64(trueT)})
	}
	// Each node ships one block; send/recv pairs expose the offsets.
	tr.Blocks = []Block{
		{Node: 1, SendLocal: 21000, RecvCollector: 21050, Events: n1},
		{Node: 2, SendLocal: 20000 - 100000, RecvCollector: 20050, Events: n2},
	}
	trueTime := func(e Event) int64 { return int64(e.File) } // stashed above
	corrected := Postprocess(tr)
	raw := PostprocessRaw(tr)
	if errRaw := OrderError(raw, trueTime); errRaw == 0 {
		t.Fatal("test not exercising misordering: raw order already perfect")
	}
	if errCorr := OrderError(corrected, trueTime); errCorr != 0 {
		t.Fatalf("corrected order still has %d inversions", errCorr)
	}
}

func TestPostprocessStableWithinNode(t *testing.T) {
	tr := &Trace{Header: testHeader(), Blocks: []Block{
		{Node: 1, SendLocal: 100, RecvCollector: 100, Events: []Event{
			{Type: EvOpen, Time: 50, File: 1},
			{Type: EvRead, Time: 50, File: 1, Offset: 0},
			{Type: EvRead, Time: 50, File: 1, Offset: 100},
		}},
	}}
	events := Postprocess(tr)
	if events[0].Type != EvOpen || events[1].Offset != 0 || events[2].Offset != 100 {
		t.Fatalf("tied events reordered: %+v", events)
	}
}

// Property: postprocessing preserves the multiset of events (count and
// per-type counts), only changing timestamps and order.
func TestQuickPostprocessConserves(t *testing.T) {
	f := func(raw []uint16) bool {
		tr := &Trace{Header: testHeader()}
		blk := Block{Node: 1, SendLocal: 1000, RecvCollector: 1100}
		for _, r := range raw {
			blk.Events = append(blk.Events, Event{
				Type: EventType(r%7) + 1,
				Time: int64(r),
				File: uint64(r),
			})
		}
		tr.Blocks = []Block{blk}
		out := Postprocess(tr)
		if len(out) != len(blk.Events) {
			return false
		}
		counts := map[uint64]int{}
		for _, e := range blk.Events {
			counts[e.File]++
		}
		for _, e := range out {
			counts[e.File]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: file round trip is the identity for arbitrary small traces.
func TestQuickFileRoundTrip(t *testing.T) {
	f := func(nodes []uint8, times []int64) bool {
		tr := &Trace{Header: testHeader()}
		for i, n := range nodes {
			blk := Block{Node: uint16(n), SendLocal: int64(i * 100), RecvCollector: int64(i*100 + 7)}
			if i < len(times) {
				blk.Events = append(blk.Events, Event{Type: EvRead, Time: times[i], File: uint64(i)})
			}
			tr.Blocks = append(tr.Blocks, blk)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Blocks) != len(tr.Blocks) {
			return false
		}
		for i := range tr.Blocks {
			if got.Blocks[i].Node != tr.Blocks[i].Node ||
				len(got.Blocks[i].Events) != len(tr.Blocks[i].Events) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
