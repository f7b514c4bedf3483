package trace

// Collector models the data-collection process that ran on the
// iPSC/860 service node: it receives blocks of event records from
// compute nodes, stamps each with its own clock on arrival, and
// accumulates them into a trace. The real collector wrote to CFS in
// large sequential writes; a BlockSink (normally a Writer over a
// file) reproduces that streaming mode -- each block is spilled as it
// arrives and its buffer recycled, so the collector's footprint stays
// O(in-flight blocks) however long the trace runs. Without a sink the
// trace accumulates in memory and can be serialized with WriteTo (see
// file.go).
type Collector struct {
	clock  Clock
	header Header
	blocks []Block
	arena  *Arena

	sink    BlockSink
	sinkErr error

	delivered int64
	events    int64
}

// BlockSink receives collected blocks as they arrive; *Writer
// implements it.
type BlockSink interface {
	WriteBlock(Block) error
}

// NewCollector returns a collector using the given clock (normally the
// service node's drifting clock) and trace header. Its block slice
// starts from the arena's pooled backing (returned there by
// Arena.ReclaimTrace), and in sink mode it recycles each spilled
// block's event chunk into the arena.
func NewCollector(clock Clock, header Header, arena *Arena) *Collector {
	return &Collector{clock: clock, header: header, arena: arena, blocks: arena.takeBlocks()}
}

// SetSink switches the collector to streaming mode: every delivered
// block is written to the sink (after arrival stamping) instead of
// retained, and its event chunk goes straight back to the arena's
// pool. Call it before the first Deliver; the first sink error is
// sticky and reported by Err.
func (c *Collector) SetSink(s BlockSink) { c.sink = s }

// Err returns the first error the sink reported, if any.
func (c *Collector) Err() error { return c.sinkErr }

// Deliver receives one block from the network, stamping its arrival
// time with the collector's clock.
func (c *Collector) Deliver(b Block) {
	b.RecvCollector = int64(c.clock.Now())
	c.delivered++
	c.events += int64(len(b.Events))
	if c.sink != nil {
		if c.sinkErr == nil {
			c.sinkErr = c.sink.WriteBlock(b)
		}
		c.arena.putChunk(b.Events)
		return
	}
	c.blocks = append(c.blocks, b)
}

// Header returns the trace header.
func (c *Collector) Header() Header { return c.header }

// Blocks returns the collected blocks in arrival order (empty in
// streaming mode).
func (c *Collector) Blocks() []Block { return c.blocks }

// BlockCount returns the number of blocks delivered so far, retained
// or streamed.
func (c *Collector) BlockCount() int64 { return c.delivered }

// EventCount returns the total number of collected event records,
// retained or streamed.
func (c *Collector) EventCount() int64 { return c.events }

// Trace bundles a header with collected blocks; it is what the
// postprocessor and the file reader/writer operate on.
type Trace struct {
	Header Header
	Blocks []Block
}

// Trace returns the collected trace (header-only in streaming mode).
func (c *Collector) Trace() *Trace {
	return &Trace{Header: c.header, Blocks: c.blocks}
}
