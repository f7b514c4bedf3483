package trace

import "repro/internal/sim"

// Clock supplies timestamps. Compute nodes have drifting local clocks;
// the collector has its own. The machine package provides
// implementations.
type Clock interface {
	Now() sim.Time
}

// Block is one buffer-load of event records shipped from a compute
// node to the collector, double-timestamped for drift correction:
// SendLocal is the node's local clock when the block left the node,
// RecvCollector the collector's clock when it arrived.
type Block struct {
	Node          uint16
	SendLocal     int64
	RecvCollector int64
	Events        []Event
}

// DefaultBufferBytes is the per-node trace buffer size used on the
// iPSC/860: one 4 KB message-sized buffer per compute node, chosen so
// that shipping event records costs >90% fewer messages than sending
// one message per record (Section 3.1).
const DefaultBufferBytes = 4096

// NodeBuffer accumulates event records on one compute node and flushes
// them as Blocks when the buffer fills. The flush callback models the
// message to the collector; the machine wires it to the network.
type NodeBuffer struct {
	node    uint16
	clock   Clock
	limit   int // records per block
	pending []Event
	flush   func(Block)
	arena   *Arena // the pool chunks come from

	recorded int64
	flushes  int64
}

// NewNodeBuffer returns a buffer for the given node. bufferBytes is
// the buffer capacity in bytes (records per block = bufferBytes /
// EventSize, minimum 1); chunks come from arena's pool (the machine
// passes every node buffer the study arena's); flush is invoked with
// each full block.
func NewNodeBuffer(node uint16, clock Clock, bufferBytes int, arena *Arena, flush func(Block)) *NodeBuffer {
	limit := bufferBytes / EventSize
	if limit < 1 {
		limit = 1
	}
	return &NodeBuffer{
		node:  node,
		clock: clock,
		limit: limit,
		flush: flush,
		arena: arena,
		// Chunks are taken lazily on first Record (idle nodes never
		// pay) and full-size: records append into preallocated capacity,
		// so a block costs at most one allocation instead of a doubling
		// growth chain per fill cycle.
	}
}

// Node returns the owning compute node.
func (b *NodeBuffer) Node() uint16 { return b.node }

// Recorded reports the number of events recorded.
func (b *NodeBuffer) Recorded() int64 { return b.recorded }

// Flushes reports the number of blocks shipped.
func (b *NodeBuffer) Flushes() int64 { return b.flushes }

// Record stamps the event with the node's local clock and buffers it,
// flushing if the buffer is now full.
func (b *NodeBuffer) Record(ev Event) {
	ev.Node = b.node
	ev.Time = int64(b.clock.Now())
	if b.pending == nil {
		b.pending = b.arena.getChunk(b.limit)
	}
	b.pending = append(b.pending, ev)
	b.recorded++
	if len(b.pending) >= b.limit {
		b.Flush()
	}
}

// Flush ships any buffered records as one block. It is a no-op when
// the buffer is empty.
func (b *NodeBuffer) Flush() {
	if len(b.pending) == 0 {
		return
	}
	blk := Block{
		Node:      b.node,
		SendLocal: int64(b.clock.Now()),
		Events:    b.pending,
	}
	// The collector retains the shipped events, so the next Record
	// starts a fresh chunk from the arena's pool rather than reusing
	// the backing array.
	b.pending = nil
	b.flushes++
	b.flush(blk)
}
