package cfs

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// This file implements the interface extension the paper's conclusions
// call for (Section 5): strided requests. A strided request names a
// regular pattern -- count records of recBytes each, record starts
// stride bytes apart -- in a single call. The whole pattern moves in
// one round of messages (one request per involved I/O node), instead
// of one round per record, "effectively increasing the request size
// [and] lowering overhead".

// ReadStrided reads count records of recBytes starting at off, with
// record starts stride apart. It is defined for mode 0 handles (each
// process names its own pattern). Records that begin at or beyond end
// of file are dropped; the return value is the number of bytes read.
func (h *Handle) ReadStrided(p *sim.Proc, off, recBytes, stride int64, count int) (int64, error) {
	if err := h.checkStrided(off, recBytes, stride, count); err != nil {
		return 0, err
	}
	if h.flags&ORdOnly == 0 {
		return 0, ErrBadAccess
	}
	if h.f.deleted {
		return 0, ErrDeleted
	}
	// Clamp the pattern to end of file.
	var n int64
	kept := 0
	for i := 0; i < count; i++ {
		recOff := off + int64(i)*stride
		if recOff >= h.f.size {
			break
		}
		rec := recBytes
		if recOff+rec > h.f.size {
			rec = h.f.size - recOff
		}
		n += rec
		kept++
	}
	h.c.tracer.Record(trace.Event{
		Type: trace.EvReadStrided, Job: h.c.job, File: h.f.id,
		Offset: off, Size: recBytes, Stride: stride, Count: uint32(kept),
		Mode: uint8(h.mode),
	})
	if kept == 0 {
		return 0, nil
	}
	h.pointer = off + int64(kept-1)*stride + recBytes
	h.transferStrided(p, off, recBytes, stride, kept, false)
	return n, nil
}

// WriteStrided writes count records of recBytes starting at off, with
// record starts stride apart, extending the file as needed (mode 0).
func (h *Handle) WriteStrided(p *sim.Proc, off, recBytes, stride int64, count int) (int64, error) {
	if err := h.checkStrided(off, recBytes, stride, count); err != nil {
		return 0, err
	}
	if h.flags&OWrOnly == 0 {
		return 0, ErrBadAccess
	}
	if h.f.deleted {
		return 0, ErrDeleted
	}
	h.c.tracer.Record(trace.Event{
		Type: trace.EvWriteStrided, Job: h.c.job, File: h.f.id,
		Offset: off, Size: recBytes, Stride: stride, Count: uint32(count),
		Mode: uint8(h.mode),
	})
	end := off + int64(count-1)*stride + recBytes
	if end > h.f.size {
		h.f.size = end
	}
	h.pointer = end
	h.transferStrided(p, off, recBytes, stride, count, true)
	return recBytes * int64(count), nil
}

func (h *Handle) checkStrided(off, recBytes, stride int64, count int) error {
	if h.closed {
		return ErrClosed
	}
	if h.mode != Mode0 {
		return ErrBadMode
	}
	if off < 0 || recBytes <= 0 || count <= 0 || stride < recBytes {
		return ErrBadRequest
	}
	return nil
}

// transferStrided moves the whole pattern in one round: the blocks of
// every record are gathered, grouped by I/O node, and each involved
// I/O node receives a single request message for its whole share.
func (h *Handle) transferStrided(p *sim.Proc, off, recBytes, stride int64, count int, isWrite bool) {
	fs := h.c.fs
	bs := int64(fs.cfg.BlockBytes)

	// Gather the distinct blocks the pattern touches, in order.
	seen := make(map[int64]bool)
	var blocks []int64
	var payload int64
	for i := 0; i < count; i++ {
		recOff := off + int64(i)*stride
		recEnd := recOff + recBytes
		if !isWrite {
			if recOff >= h.f.size {
				break
			}
			if recEnd > h.f.size {
				recEnd = h.f.size
			}
		}
		payload += recEnd - recOff
		for b := recOff / bs; b <= (recEnd-1)/bs; b++ {
			if !seen[b] {
				seen[b] = true
				blocks = append(blocks, b)
			}
		}
	}
	if len(blocks) == 0 {
		return
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })

	// Group by I/O node into a borrowed transfer record (see transfer):
	// blocks are already sorted, so legs come out in deterministic
	// order without maps or a second sort.
	nio := int64(fs.cfg.IONodes)
	x := fs.getXfer(h.c.node)
	legs := x.legs
	involved := 0
	for _, b := range blocks {
		l := &legs[b%nio]
		db, allocated := h.f.blocks.get(b)
		if isWrite && !allocated {
			newBlock, err := l.io.allocBlock()
			if err != nil {
				continue
			}
			h.f.blocks.set(b, newBlock, fs.arena)
			db = newBlock
			allocated = true
		}
		if !allocated {
			db = -1
		}
		if len(l.blocks) == 0 {
			involved++
		}
		l.blocks = append(l.blocks, legBlock{fileBlock: b, diskBlock: db, nextDisk: -1})
	}
	if involved == 0 {
		x.wait(p) // nothing posted: returns the record at once
		return
	}

	perNodePayload := payload / int64(involved) // even split approximation
	x.wg.Add(involved)
	now := p.Now()
	for i := range legs {
		l := &legs[i]
		if len(l.blocks) == 0 {
			continue
		}
		reqBytes := reqHeaderBytes + 16 // pattern descriptor
		respBytes := reqHeaderBytes
		if isWrite {
			reqBytes += int(perNodePayload)
		} else {
			respBytes += int(perNodePayload)
		}
		x.post(l, now, h.f.id, isWrite, reqBytes, respBytes)
	}
	x.wait(p)
}
