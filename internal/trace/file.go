package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Magic begins every CHARISMA trace file, making it self-descriptive
// as the paper requires.
const Magic = "CHARISMA"

// Version of the on-disk format.
const Version = 1

// Header describes the traced machine and tracing configuration; it
// makes each trace file self-descriptive.
type Header struct {
	ComputeNodes uint16 // 128 on the NAS iPSC/860
	IONodes      uint16 // 10
	BlockBytes   uint32 // CFS striping unit: 4096
	BufferBytes  uint32 // per-node trace buffer: 4096
	Seed         uint64 // workload seed (synthetic traces)
}

const headerSize = 8 + 2 + 2 + 2 + 4 + 4 + 8 // magic + version + fields

// BlockSize returns the header's block size in bytes, falling back to
// the CFS striping unit of 4096 when a foreign or crafted trace records
// none.
func (h Header) BlockSize() int64 {
	if h.BlockBytes == 0 {
		return 4096
	}
	return int64(h.BlockBytes)
}

func (h *Header) encode(buf []byte) {
	copy(buf[0:8], Magic)
	binary.LittleEndian.PutUint16(buf[8:], Version)
	binary.LittleEndian.PutUint16(buf[10:], h.ComputeNodes)
	binary.LittleEndian.PutUint16(buf[12:], h.IONodes)
	binary.LittleEndian.PutUint32(buf[14:], h.BlockBytes)
	binary.LittleEndian.PutUint32(buf[18:], h.BufferBytes)
	binary.LittleEndian.PutUint64(buf[22:], h.Seed)
}

func (h *Header) decode(buf []byte) error {
	if string(buf[0:8]) != Magic {
		return fmt.Errorf("trace: bad magic %q", buf[0:8])
	}
	if v := binary.LittleEndian.Uint16(buf[8:]); v != Version {
		return fmt.Errorf("trace: unsupported version %d", v)
	}
	h.ComputeNodes = binary.LittleEndian.Uint16(buf[10:])
	h.IONodes = binary.LittleEndian.Uint16(buf[12:])
	h.BlockBytes = binary.LittleEndian.Uint32(buf[14:])
	h.BufferBytes = binary.LittleEndian.Uint32(buf[18:])
	h.Seed = binary.LittleEndian.Uint64(buf[22:])
	return nil
}

const blockHeaderSize = 2 + 4 + 8 + 8 // node + count + sendLocal + recvCollector

// countingWriter counts the bytes that actually reach the underlying
// writer, so partial-write reporting stays accurate through the
// Writer's buffering.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Writer encodes a trace incrementally: the header up front, then one
// block at a time as WriteBlock is called. It is the streaming
// counterpart of Trace.WriteTo -- the collector (or tracegen) flushes
// each block to disk as it arrives instead of holding the whole trace
// in memory -- and it maintains the block index a Reader needs, so the
// file it just wrote can be re-read without a scan pass.
//
// Errors are sticky: after any write error every method returns it.
// Call Flush once all blocks are written.
type Writer struct {
	cw      countingWriter
	bw      *bufio.Writer
	header  Header
	index   []BlockInfo
	noIndex bool // batch WriteTo never reads the index; skip building it
	blocks  int
	off     int64 // logical offset of the next block header
	events  int64 // records written so far (flatten index of the next)
	err     error
}

// NewWriter starts an encoded trace on w by writing the header.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	tw := &Writer{header: h, off: headerSize}
	tw.cw.w = w
	tw.bw = bufio.NewWriter(&tw.cw)
	var hbuf [headerSize]byte
	h.encode(hbuf[:])
	if _, err := tw.bw.Write(hbuf[:]); err != nil {
		tw.err = err
		return tw, err
	}
	return tw, nil
}

// WriteBlock appends one block to the trace.
func (w *Writer) WriteBlock(b Block) error {
	if w.err != nil {
		return w.err
	}
	var bbuf [blockHeaderSize]byte
	binary.LittleEndian.PutUint16(bbuf[0:], b.Node)
	binary.LittleEndian.PutUint32(bbuf[2:], uint32(len(b.Events)))
	binary.LittleEndian.PutUint64(bbuf[6:], uint64(b.SendLocal))
	binary.LittleEndian.PutUint64(bbuf[14:], uint64(b.RecvCollector))
	if _, err := w.bw.Write(bbuf[:]); err != nil {
		w.err = err
		return err
	}
	var ebuf [EventSize]byte
	for i := range b.Events {
		b.Events[i].Encode(ebuf[:])
		if _, err := w.bw.Write(ebuf[:]); err != nil {
			w.err = err
			return err
		}
	}
	if !w.noIndex {
		w.index = append(w.index, BlockInfo{
			Offset:        w.off,
			StartIdx:      w.events,
			SendLocal:     b.SendLocal,
			RecvCollector: b.RecvCollector,
			Count:         uint32(len(b.Events)),
			Node:          b.Node,
		})
	}
	w.off += blockHeaderSize + int64(len(b.Events))*EventSize
	w.events += int64(len(b.Events))
	w.blocks++
	return nil
}

// Flush writes any buffered bytes through to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }

// BytesWritten reports the bytes that reached the underlying writer.
// After a successful Flush this is the encoded trace size; after an
// error it is the length of the partial file left behind.
func (w *Writer) BytesWritten() int64 { return w.cw.n }

// EventCount reports the event records written so far.
func (w *Writer) EventCount() int64 { return w.events }

// BlockCount reports the blocks written so far.
func (w *Writer) BlockCount() int { return w.blocks }

// Reader returns a Reader over the trace this Writer just encoded,
// reusing the index built during writing instead of re-scanning the
// file. src must read back exactly the bytes written (an *os.File
// opened for read/write, or any in-memory sink). Flush must have
// succeeded first.
func (w *Writer) Reader(src io.ReaderAt) (*Reader, error) {
	if w.err != nil {
		return nil, w.err
	}
	if w.noIndex {
		return nil, fmt.Errorf("trace: this Writer did not build an index; use NewReader")
	}
	if buffered := w.bw.Buffered(); buffered > 0 {
		return nil, fmt.Errorf("trace: %d bytes still buffered; call Flush before Reader", buffered)
	}
	return &Reader{r: src, header: w.header, index: w.index, events: w.events}, nil
}

// WriteTo serializes the trace. The layout is:
//
//	header | block*
//
// where each block is a small header (node, record count, the two
// drift-correction timestamps) followed by its fixed-size event
// records. The returned count is the bytes that reached w, so on error
// it is the size of the partial output.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	tw, err := NewWriter(w, t.Header)
	tw.noIndex = true // nothing re-reads a batch serialization through tw
	if err != nil {
		return tw.BytesWritten(), err
	}
	for _, blk := range t.Blocks {
		if err := tw.WriteBlock(blk); err != nil {
			return tw.BytesWritten(), err
		}
	}
	err = tw.Flush()
	return tw.BytesWritten(), err
}
