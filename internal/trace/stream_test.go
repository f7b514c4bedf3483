package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// driftTrace builds a multi-node trace with per-node clock offsets,
// interleaved block deliveries, and ties, exercising the merge.
func driftTrace() *Trace {
	tr := &Trace{Header: testHeader()}
	// Node 1: two blocks; node 2: offset clock, one block; node 3: a
	// block with a time tie against node 1.
	tr.Blocks = []Block{
		{Node: 1, SendLocal: 1000, RecvCollector: 1050, Events: []Event{
			{Type: EvOpen, Node: 1, Time: 100, File: 1},
			{Type: EvRead, Node: 1, Time: 500, File: 1, Size: 4096},
		}},
		{Node: 2, SendLocal: 900, RecvCollector: 21000, Events: []Event{
			{Type: EvWrite, Node: 2, Time: 300, File: 2, Size: 100},
			{Type: EvWrite, Node: 2, Time: 800, File: 2, Size: 100},
		}},
		{Node: 3, SendLocal: 1000, RecvCollector: 1050, Events: []Event{
			{Type: EvRead, Node: 3, Time: 500, File: 3, Size: 1}, // ties node 1's read
		}},
		{Node: 1, SendLocal: 2000, RecvCollector: 2060, Events: []Event{
			{Type: EvClose, Node: 1, Time: 1500, File: 1},
		}},
	}
	return tr
}

func encodeTrace(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriterMatchesWriteTo(t *testing.T) {
	tr := driftTrace()
	want := encodeTrace(t, tr)

	var buf bytes.Buffer
	w, err := NewWriter(&buf, tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range tr.Blocks {
		if err := w.WriteBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("incremental writer produced %d bytes, WriteTo %d; contents differ", buf.Len(), len(want))
	}
	if w.BytesWritten() != int64(len(want)) {
		t.Fatalf("BytesWritten %d, want %d", w.BytesWritten(), len(want))
	}
	if w.EventCount() != 6 || w.BlockCount() != 4 {
		t.Fatalf("writer counters: %d events, %d blocks", w.EventCount(), w.BlockCount())
	}
}

func TestReaderBlocksRoundTrip(t *testing.T) {
	tr := driftTrace()
	data := encodeTrace(t, tr)
	rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Header() != tr.Header {
		t.Fatalf("header: %+v vs %+v", rd.Header(), tr.Header)
	}
	if rd.NumBlocks() != len(tr.Blocks) || rd.EventCount() != 6 {
		t.Fatalf("index: %d blocks, %d events", rd.NumBlocks(), rd.EventCount())
	}
	i := 0
	err = rd.Blocks(func(b Block) error {
		want := tr.Blocks[i]
		if b.Node != want.Node || b.SendLocal != want.SendLocal || b.RecvCollector != want.RecvCollector {
			t.Fatalf("block %d header mismatch: %+v", i, b)
		}
		if len(b.Events) != len(want.Events) {
			t.Fatalf("block %d: %d events, want %d", i, len(b.Events), len(want.Events))
		}
		for j := range want.Events {
			if b.Events[j] != want.Events[j] {
				t.Fatalf("block %d event %d: %+v vs %+v", i, j, b.Events[j], want.Events[j])
			}
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(tr.Blocks) {
		t.Fatalf("visited %d blocks", i)
	}
}

// streamAll collects the merged stream into a slice.
func streamAll(t *testing.T, rd *Reader, raw bool) []Event {
	t.Helper()
	var out []Event
	stream := rd.Events
	if raw {
		stream = rd.RawEvents
	}
	if err := stream(func(ev *Event) error {
		out = append(out, *ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func assertSameStream(t *testing.T, got, want []Event, label string) {
	t.Helper()
	if err := sameEvents(got, want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// assertMergeMatchesReference runs the merge over both block sources
// -- the in-memory trace through Postprocess and PostprocessRaw, and
// its .trc encoding through a Reader's Events, RawEvents and AllEvents
// -- and compares every stream with the reference sort. It also checks
// that postprocessing left the trace's blocks exactly as collected,
// and that the trace's own Reader reads like the .trc one.
func assertMergeMatchesReference(t *testing.T, tr *Trace, label string) {
	t.Helper()
	before := cloneBlocks(tr.Blocks)
	want, wantRaw := ReferencePostprocess(tr, true), ReferencePostprocess(tr, false)
	assertSameStream(t, Postprocess(tr), want, label+": Postprocess")
	assertSameStream(t, PostprocessRaw(tr), wantRaw, label+": PostprocessRaw")
	assertSameBlocks(t, tr.Blocks, before, label)
	if err := CompareTraceReader(tr); err != nil {
		t.Fatalf("%s: %v", label, err)
	}

	data := encodeTrace(t, tr)
	rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	assertSameStream(t, streamAll(t, rd, false), want, label+": Reader.Events")
	assertSameStream(t, streamAll(t, rd, true), wantRaw, label+": Reader.RawEvents")
	all, err := rd.AllEvents()
	if err != nil {
		t.Fatal(err)
	}
	assertSameStream(t, all, want, label+": Reader.AllEvents")
}

// CompareTraceReader checks tr.Reader() against a Reader over tr's
// .trc encoding: the same header, event and block counts, encoded
// size, Blocks sequence, and Events and RawEvents streams. The
// in-memory Reader must hand out the trace's own event slices, and
// leave every block as it was. It is exported to the external test
// package, which runs it on whole studies.
func CompareTraceReader(tr *Trace) error {
	before := cloneBlocks(tr.Blocks)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		return err
	}
	file, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		return err
	}
	mem := tr.Reader()
	if mem.Header() != file.Header() || mem.EventCount() != file.EventCount() ||
		mem.NumBlocks() != file.NumBlocks() || mem.Size() != file.Size() || file.Size() != int64(buf.Len()) {
		return fmt.Errorf("trace Reader indexes %+v, %d events, %d blocks, %d bytes; .trc Reader %+v, %d, %d, %d (encoding is %d bytes)",
			mem.Header(), mem.EventCount(), mem.NumBlocks(), mem.Size(),
			file.Header(), file.EventCount(), file.NumBlocks(), file.Size(), buf.Len())
	}

	var memBlocks, fileBlocks []Block
	i := 0
	err = mem.Blocks(func(b Block) error {
		if len(b.Events) > 0 && &b.Events[0] != &tr.Blocks[i].Events[0] {
			return fmt.Errorf("trace Reader copied block %d", i)
		}
		i++
		memBlocks = append(memBlocks, b)
		return nil
	})
	if err != nil {
		return err
	}
	err = file.Blocks(func(b Block) error {
		b.Events = append([]Event(nil), b.Events...)
		fileBlocks = append(fileBlocks, b)
		return nil
	})
	if err != nil {
		return err
	}
	if err := sameBlocks(memBlocks, fileBlocks); err != nil {
		return fmt.Errorf("Blocks: %w", err)
	}

	gather := func(stream func(func(*Event) error) error) ([]Event, error) {
		var out []Event
		err := stream(func(ev *Event) error {
			out = append(out, *ev)
			return nil
		})
		return out, err
	}
	streams := []struct {
		name      string
		mem, file func(func(*Event) error) error
	}{
		{"Events", mem.Events, file.Events},
		{"RawEvents", mem.RawEvents, file.RawEvents},
	}
	for _, s := range streams {
		got, err := gather(s.mem)
		if err != nil {
			return err
		}
		want, err := gather(s.file)
		if err != nil {
			return err
		}
		if err := sameEvents(got, want); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	if err := sameBlocks(tr.Blocks, before); err != nil {
		return fmt.Errorf("trace Reader changed the trace: %w", err)
	}
	return nil
}

// sameBlocks reports the first difference between two block lists.
func sameBlocks(got, want []Block) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d blocks, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Node != w.Node || g.SendLocal != w.SendLocal || g.RecvCollector != w.RecvCollector {
			return fmt.Errorf("block %d header %+v, want %+v", i, g, w)
		}
		if err := sameEvents(g.Events, w.Events); err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
	}
	return nil
}

// sameEvents reports the first difference between two event lists.
func sameEvents(got, want []Event) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("event %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

func cloneBlocks(blocks []Block) []Block {
	out := make([]Block, len(blocks))
	for i, b := range blocks {
		out[i] = b
		out[i].Events = append([]Event(nil), b.Events...)
	}
	return out
}

func assertSameBlocks(t *testing.T, got, want []Block, label string) {
	t.Helper()
	if err := sameBlocks(got, want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestReaderEventsMatchPostprocess pins the merge's contract on a
// hand-built trace: both block sources, corrected and raw, equal the
// reference sort element for element, including cross-node ties.
func TestReaderEventsMatchPostprocess(t *testing.T) {
	assertMergeMatchesReference(t, driftTrace(), "drift")
}

// TestReaderEventsOvertakenBlock: a node's small residual block can
// overtake its previous full block on the network, landing earlier in
// the trace. The merge processes each node's blocks in recording
// (SendLocal) order, so the stream still matches the reference sort.
func TestReaderEventsOvertakenBlock(t *testing.T) {
	tr := &Trace{Header: testHeader()}
	tr.Blocks = []Block{
		// Delivered first, but recorded second (SendLocal 2000).
		{Node: 5, SendLocal: 2000, RecvCollector: 2010, Events: []Event{
			{Type: EvClose, Node: 5, Time: 1900, File: 9},
		}},
		{Node: 5, SendLocal: 1000, RecvCollector: 2500, Events: []Event{
			{Type: EvOpen, Node: 5, Time: 100, File: 9},
			{Type: EvRead, Node: 5, Time: 600, File: 9, Size: 10},
		}},
		{Node: 6, SendLocal: 1500, RecvCollector: 1600, Events: []Event{
			{Type: EvWrite, Node: 6, Time: 400, File: 10, Size: 10},
		}},
	}
	assertMergeMatchesReference(t, tr, "overtaken")
}

// TestReaderEventsOvertakenBoundaryTie is the hard case: the
// overtaking residual block's first event carries the same timestamp
// as the overtaken block's last event (a buffer that fills and
// flushes mid-instant, with the residual flushed at that same
// instant). The reference sort tie-breaks on flatten index, putting
// the overtaking (earlier-in-trace) block's event first even though it
// was recorded second; the cursor's block window must reproduce that.
func TestReaderEventsOvertakenBoundaryTie(t *testing.T) {
	tr := &Trace{Header: testHeader()}
	tr.Blocks = []Block{
		// Recorded second, delivered first: starts at the same instant
		// the previous block ended on.
		{Node: 5, SendLocal: 2000, RecvCollector: 2010, Events: []Event{
			{Type: EvRead, Node: 5, Time: 1000, File: 9, Offset: 4096, Size: 10},
			{Type: EvClose, Node: 5, Time: 1900, File: 9},
		}},
		{Node: 5, SendLocal: 1000, RecvCollector: 2500, Events: []Event{
			{Type: EvOpen, Node: 5, Time: 100, File: 9},
			{Type: EvRead, Node: 5, Time: 1000, File: 9, Offset: 0, Size: 10},
		}},
	}
	assertMergeMatchesReference(t, tr, "boundary tie")
}

// randomTrace builds a collector-shaped trace: 1-16 nodes, each with a
// monotone local clock at its own offset and drift, recording events
// at nondecreasing instants (often the same one, so ties straddle
// block boundaries) into a buffer of 1-6 records. Besides full blocks
// the nodes flush residual and empty blocks, and every block reaches
// the collector after a delay that grows with its size, so a residual
// flushed just after a full block often arrives ahead of it.
func randomTrace(r *rand.Rand) *Trace {
	type sent struct {
		blk    Block
		arrive int64
	}
	var deliveries []sent
	var seq int64
	nodes := 1 + r.Intn(16)
	for n := 0; n < nodes; n++ {
		node := uint16(n * 7)
		offset := r.Int63n(2_000_000) - 1_000_000
		slope := 1 + (r.Float64()-0.5)*2e-3 // within +-1000 ppm
		local := func(now int64) int64 { return offset + int64(slope*float64(now)) }
		capacity := 1 + r.Intn(6)
		var now int64
		var pending []Event
		flush := func() {
			delay := 10 + int64(len(pending))*(20+r.Int63n(200))
			deliveries = append(deliveries, sent{
				blk:    Block{Node: node, SendLocal: local(now), Events: pending},
				arrive: now + delay,
			})
			pending = nil
		}
		for e := r.Intn(60); e > 0; e-- {
			switch r.Intn(4) {
			case 0: // same instant as the previous record
			case 1:
				now++
			default:
				now += r.Int63n(5000)
			}
			seq++
			pending = append(pending, Event{Type: EvRead, Node: node, Time: local(now), File: uint64(node), Offset: seq})
			switch {
			case len(pending) == capacity:
				flush()
			case r.Intn(8) == 0: // residual
				flush()
			}
			if r.Intn(10) == 0 { // empty
				flush()
			}
		}
		flush()
	}
	sort.SliceStable(deliveries, func(i, j int) bool { return deliveries[i].arrive < deliveries[j].arrive })
	tr := &Trace{Header: testHeader()}
	for _, d := range deliveries {
		d.blk.RecvCollector = d.arrive
		tr.Blocks = append(tr.Blocks, d.blk)
	}
	return tr
}

// TestMergeRandomizedDifferential compares both block sources with the
// reference sort on many random collector-shaped traces.
func TestMergeRandomizedDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 400; i++ {
		assertMergeMatchesReference(t, randomTrace(r), fmt.Sprintf("trace %d", i))
	}
}

func TestReaderEmptyTrace(t *testing.T) {
	tr := &Trace{Header: testHeader()}
	data := encodeTrace(t, tr)
	rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumBlocks() != 0 || rd.EventCount() != 0 {
		t.Fatalf("empty trace indexed as %d blocks / %d events", rd.NumBlocks(), rd.EventCount())
	}
	if got := streamAll(t, rd, false); len(got) != 0 {
		t.Fatalf("empty trace streamed %d events", len(got))
	}
}

func TestOpenReader(t *testing.T) {
	tr := driftTrace()
	path := filepath.Join(t.TempDir(), "t.trc")
	if err := os.WriteFile(path, encodeTrace(t, tr), 0o644); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStream(t, streamAll(t, rd, false), ReferencePostprocess(tr, true), "file-backed")
	assertSameStream(t, streamAll(t, rd, true), ReferencePostprocess(tr, false), "file-backed raw")
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenReader(filepath.Join(t.TempDir(), "missing.trc")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestReaderRejectsCorrupt: truncations and corruptions at every layer
// must yield errors, never panics.
func TestReaderRejectsCorrupt(t *testing.T) {
	data := encodeTrace(t, driftTrace())

	newReader := func(d []byte) (*Reader, error) {
		return NewReader(bytes.NewReader(d), int64(len(d)))
	}

	// Truncations that break the framing fail at indexing time.
	for _, cut := range []int{0, 5, headerSize - 1, headerSize + 3, len(data) - 1, len(data) - EventSize - 1} {
		if _, err := newReader(data[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}

	// Bad magic and bad version.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := newReader(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(bad[8:], 99)
	if _, err := newReader(bad); err == nil {
		t.Error("bad version accepted")
	}

	// An absurd record count must be rejected at indexing, without a
	// giant allocation.
	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(bad[headerSize+2:], 1<<31)
	if _, err := newReader(bad); err == nil {
		t.Error("absurd record count accepted")
	}

	// A corrupt event type passes indexing (payloads are lazy) but
	// fails block and event iteration.
	bad = append([]byte(nil), data...)
	bad[headerSize+blockHeaderSize+50] = 0xEE // first event's Type byte
	rd, err := newReader(bad)
	if err != nil {
		t.Fatalf("structurally valid trace rejected at indexing: %v", err)
	}
	if err := rd.Blocks(func(Block) error { return nil }); err == nil {
		t.Error("corrupt event type accepted by Blocks")
	}
	if err := rd.Events(func(*Event) error { return nil }); err == nil {
		t.Error("corrupt event type accepted by Events")
	}
}

// TestWriterPartialFailure: a sink that fails mid-way yields a sticky
// error and reports the bytes that actually landed.
func TestWriterPartialFailure(t *testing.T) {
	tr := driftTrace()
	want := encodeTrace(t, tr)
	sink := &limitedWriter{limit: len(want) / 2}
	n, err := tr.WriteTo(sink)
	if err == nil {
		t.Fatal("short write produced no error")
	}
	if n != int64(len(sink.buf)) {
		t.Fatalf("WriteTo reported %d bytes, sink holds %d", n, len(sink.buf))
	}
	if n >= int64(len(want)) {
		t.Fatalf("partial write reported full size %d", n)
	}
}

type limitedWriter struct {
	buf   []byte
	limit int
}

func (w *limitedWriter) Write(p []byte) (int, error) {
	room := w.limit - len(w.buf)
	if room <= 0 {
		return 0, os.ErrClosed
	}
	if len(p) <= room {
		w.buf = append(w.buf, p...)
		return len(p), nil
	}
	w.buf = append(w.buf, p[:room]...)
	return room, os.ErrClosed
}
