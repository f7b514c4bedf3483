package trace

// Arena pools the trace pipeline's per-study storage so that a worker
// running many studies back to back (see core.Arena and core.RunSweep)
// allocates trace memory only for its first study:
//
//   - NodeBuffer chunks: each buffer fill ships one []Event chunk to
//     the collector; ReclaimTrace returns them for the next study.
//   - The collector's block slice: the arrival-ordered []Block backing.
//
// Postprocessing needs no scratch here: the merge reads the collected
// blocks in place, and core.Arena pools its output stream through
// AppendPostprocessed.
//
// An Arena is not safe for concurrent use; give each worker its own.
// The zero value is ready to use.
type Arena struct {
	chunks [][]Event // free NodeBuffer chunks, any capacity
	blocks []Block   // free collector backing, length 0
}

// getChunk returns an empty event chunk with capacity >= limit,
// reusing a pooled chunk when one fits.
func (a *Arena) getChunk(limit int) []Event {
	for n := len(a.chunks); n > 0; n = len(a.chunks) {
		c := a.chunks[n-1]
		a.chunks[n-1] = nil
		a.chunks = a.chunks[:n-1]
		if cap(c) >= limit {
			return c[:0]
		}
		// Undersized for this buffer (a machine variant with larger
		// trace buffers): drop it and keep looking.
	}
	return make([]Event, 0, limit)
}

// putChunk returns a chunk to the pool.
func (a *Arena) putChunk(c []Event) {
	if cap(c) > 0 {
		a.chunks = append(a.chunks, c)
	}
}

// takeBlocks hands the pooled collector backing to a new collector.
func (a *Arena) takeBlocks() []Block {
	b := a.blocks
	a.blocks = nil
	return b[:0]
}

// ReclaimTrace returns a collected trace's storage -- every block's
// event chunk and the block slice itself -- to the arena. The trace
// and any postprocessed view of it must no longer be used.
func (a *Arena) ReclaimTrace(t *Trace) {
	if t == nil {
		return
	}
	for i := range t.Blocks {
		a.putChunk(t.Blocks[i].Events)
		t.Blocks[i].Events = nil
	}
	a.blocks = t.Blocks[:0]
	t.Blocks = nil
}
