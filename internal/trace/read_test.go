package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Read parses a trace file produced by WriteTo, materializing every
// block in memory. It is a second decoder, independent of Reader's
// block index, that the round-trip and fuzz tests check Reader
// against.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var hbuf [headerSize]byte
	if _, err := io.ReadFull(br, hbuf[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	t := &Trace{}
	if err := t.Header.decode(hbuf[:]); err != nil {
		return nil, err
	}
	var bbuf [blockHeaderSize]byte
	var ebuf [EventSize]byte
	for {
		if _, err := io.ReadFull(br, bbuf[:]); err != nil {
			if err == io.EOF {
				return t, nil
			}
			return nil, fmt.Errorf("trace: reading block header: %w", err)
		}
		blk := Block{
			Node:          binary.LittleEndian.Uint16(bbuf[0:]),
			SendLocal:     int64(binary.LittleEndian.Uint64(bbuf[6:])),
			RecvCollector: int64(binary.LittleEndian.Uint64(bbuf[14:])),
		}
		count := binary.LittleEndian.Uint32(bbuf[2:])
		// Grow incrementally with a capped initial capacity: the count
		// field is untrusted input, and a corrupt value must hit a
		// truncation error below, not a giant up-front allocation.
		capHint := int(count)
		if capHint > 4096 {
			capHint = 4096
		}
		blk.Events = make([]Event, 0, capHint)
		for i := uint32(0); i < count; i++ {
			if _, err := io.ReadFull(br, ebuf[:]); err != nil {
				return nil, fmt.Errorf("trace: reading record %d: %w", i, err)
			}
			var ev Event
			if err := ev.Decode(ebuf[:]); err != nil {
				return nil, err
			}
			blk.Events = append(blk.Events, ev)
		}
		t.Blocks = append(t.Blocks, blk)
	}
}
