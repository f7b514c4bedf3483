package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// memSink is an in-memory StreamSink for tests: appends on Write,
// random access on ReadAt.
type memSink struct{ buf []byte }

func (m *memSink) Write(p []byte) (int, error) {
	m.buf = append(m.buf, p...)
	return len(p), nil
}

func (m *memSink) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(m.buf)) {
		return 0, fmt.Errorf("memSink: offset %d out of range", off)
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// failAfterSink fails every Write once limit bytes have been accepted,
// modeling a full disk.
type failAfterSink struct {
	memSink
	limit int
}

func (f *failAfterSink) Write(p []byte) (int, error) {
	if len(f.buf)+len(p) > f.limit {
		room := f.limit - len(f.buf)
		if room < 0 {
			room = 0
		}
		f.buf = append(f.buf, p[:room]...)
		return room, fmt.Errorf("failAfterSink: disk full at %d bytes", f.limit)
	}
	return f.memSink.Write(p)
}

// TestStreamingReportByteIdentical is the pipeline's core contract:
// the seed-42 study run through RunStudyStreaming -- collector
// spilling blocks to the sink, per-node k-way merge, incremental
// analyzer -- formats to exactly the report the batch RunStudy path
// produces, along with every instrumentation counter.
func TestStreamingReportByteIdentical(t *testing.T) {
	cfg := DefaultConfig(42, 0.02)
	batch := RunStudy(cfg)

	var sink memSink
	stream, err := RunStudyStreaming(cfg, &sink)
	if err != nil {
		t.Fatal(err)
	}

	got, want := stream.Report.Format(), batch.Report.Format()
	if got != want {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("streaming report differs from batch (first diff near byte %d):\nstreaming %d bytes, batch %d bytes", i, len(got), len(want))
	}
	if stream.Header != batch.Header {
		t.Fatalf("header: %+v vs %+v", stream.Header, batch.Header)
	}
	if stream.Horizon != batch.Horizon {
		t.Fatalf("horizon: %v vs %v", stream.Horizon, batch.Horizon)
	}
	if stream.EventCount != int64(len(batch.Events)) {
		t.Fatalf("event count: %d vs %d", stream.EventCount, len(batch.Events))
	}
	if stream.TraceBlocks != int64(len(batch.Trace.Blocks)) {
		t.Fatalf("blocks: %d vs %d", stream.TraceBlocks, len(batch.Trace.Blocks))
	}
	if stream.TraceRecords != batch.TraceRecords ||
		stream.TraceMessages != batch.TraceMessages ||
		stream.DiskOps != batch.DiskOps {
		t.Fatalf("instrumentation counters differ: %+v vs records=%d messages=%d diskops=%d",
			stream, batch.TraceRecords, batch.TraceMessages, batch.DiskOps)
	}
}

// TestStreamingTraceBytesMatchBatch: the spilled .trc must be byte-
// identical to serializing the batch-collected trace -- the streaming
// writer is the same encoder fed block by block.
func TestStreamingTraceBytesMatchBatch(t *testing.T) {
	cfg := DefaultConfig(7, 0.01)
	batch := RunStudy(cfg)
	var buf bytes.Buffer
	if _, err := batch.Trace.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	var sink memSink
	stream, err := RunStudyStreaming(cfg, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.buf, buf.Bytes()) {
		t.Fatalf("spilled trace differs from batch serialization: %d vs %d bytes", len(sink.buf), buf.Len())
	}
	if stream.TraceBytes != int64(len(sink.buf)) {
		t.Fatalf("TraceBytes %d, sink holds %d", stream.TraceBytes, len(sink.buf))
	}

	// And the spilled bytes round-trip through the standalone reader.
	rd, err := trace.NewReader(bytes.NewReader(sink.buf), int64(len(sink.buf)))
	if err != nil {
		t.Fatal(err)
	}
	events, err := rd.AllEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(batch.Events) {
		t.Fatalf("reader found %d events, batch %d", len(events), len(batch.Events))
	}
	for i := range events {
		if events[i] != batch.Events[i] {
			t.Fatalf("event %d differs:\nstreaming %+v\nbatch     %+v", i, events[i], batch.Events[i])
		}
	}
}

// TestStreamingSinkErrorPropagates: a sink that fills up mid-study
// must surface an error (never a panic or a silent truncation), with
// the partial byte count still reported by the writer.
func TestStreamingSinkErrorPropagates(t *testing.T) {
	sink := &failAfterSink{limit: 8 * 1024}
	_, err := RunStudyStreaming(DefaultConfig(42, 0.01), sink)
	if err == nil {
		t.Fatal("full sink produced no error")
	}
}

// BenchmarkTracePath isolates the trace-handling stage the two study
// pipelines differ in, over the identical collected trace. Both run
// the one k-way merge: "batch" merges the in-memory blocks into a
// materialized stream and analyzes it; "streaming" spills once outside
// the timed region, then indexes, merges, and analyzes from the file,
// one decoded block per node at a time. The B/op gap is the merged
// stream the streaming path never materializes -- on top of never
// holding the collected blocks (another ~EventSize x events) resident
// at all.
func BenchmarkTracePath(b *testing.B) {
	study := RunStudy(DefaultConfig(42, 0.05))
	path := filepath.Join(b.TempDir(), "bench.trc")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := study.Trace.WriteTo(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			events := trace.Postprocess(study.Trace)
			analysis.Analyze(study.Header, events, study.Horizon)
		}
	})
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd, err := trace.OpenReader(path)
			if err != nil {
				b.Fatal(err)
			}
			o := analysis.NewOnline(rd.Header())
			if err := rd.Events(func(ev *trace.Event) error {
				o.Observe(ev)
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			o.Finish(study.Horizon)
			rd.Close()
		}
	})
}

// BenchmarkRunStudyStreaming measures the streaming pipeline's
// allocation profile against BenchmarkRunStudy (bench_test.go, same
// scale): the trace-proportional allocations -- collected blocks and
// the merged stream -- drop to a handful of recycled per-node chunks
// plus the merge cursors. The trace itself spills to a real file, as
// in production.
func BenchmarkRunStudyStreaming(b *testing.B) {
	cfg := DefaultConfig(42, 0.05)
	f, err := os.CreateTemp(b.TempDir(), "stream-*.trc")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		if _, err := RunStudyStreaming(cfg, f); err != nil {
			b.Fatal(err)
		}
	}
}
