// Package machine assembles the simulated NASA Ames iPSC/860: 128
// compute nodes on a 7-dimensional hypercube, 10 I/O nodes each hanging
// off one compute node, a service node running the CHARISMA collector,
// drifting per-node clocks, a buddy subcube allocator, and an NQS-like
// job queue. Jobs are per-node programs written against the CFS client
// API; instrumented jobs are traced through per-node 4 KB buffers
// exactly as in the paper.
//
// The machine runs in one of two modes. NewWith builds it with the
// CHARISMA instrumentation, as the traced study does. NewUntraced
// builds the same machine without it, which is what the analytical
// twin walks.
package machine

import (
	"fmt"

	"repro/internal/cfs"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Config sizes the machine.
type Config struct {
	ComputeNodes int // must be a power of two (128 at NAS)
	// Net configures the interconnect; Net.Kind names its topology
	// (one of topo.Names; "" means hypercube).
	Net              topo.Config
	FS               cfs.Config
	ServiceHost      int      // compute node the service node attaches to
	TraceBufferBytes int      // per-node trace buffer (4096)
	MaxClockOffset   sim.Time // startup clock skew bound
	MaxClockDriftPPM float64  // drift-rate bound
	Seed             uint64
	// Faults injects deterministic hardware degradation. The zero
	// value builds a healthy machine with byte-identical behavior to a
	// build that predates fault injection.
	Faults faults.Config
}

// NASConfig returns the NAS facility configuration used throughout the
// paper: 128 compute nodes, 10 I/O nodes with 760 MB disks, one
// service node, 4 KB blocks and trace buffers.
func NASConfig(seed uint64) Config {
	return Config{
		ComputeNodes:     128,
		Net:              topo.IPSC860(),
		FS:               cfs.DefaultConfig(),
		ServiceHost:      0,
		TraceBufferBytes: trace.DefaultBufferBytes,
		MaxClockOffset:   100 * sim.Millisecond,
		MaxClockDriftPPM: 100,
		Seed:             seed,
	}
}

// NodeCtx is what a job's per-node program receives: its process, its
// identity, and its CFS client.
type NodeCtx struct {
	P        *sim.Proc
	Node     int // physical compute node
	Rank     int // rank within the job, 0..JobNodes-1
	JobNodes int // number of nodes in the job
	JobID    uint32
	CFS      *cfs.Client
}

// JobSpec describes one submitted job.
type JobSpec struct {
	Nodes  int  // power of two <= ComputeNodes
	Traced bool // whether the job linked the instrumented library
	// Body runs on every node of the job; nil bodies model jobs that
	// do no CFS I/O (most system programs).
	Body func(ctx *NodeCtx)
}

type queuedJob struct {
	spec JobSpec
	id   uint32
}

// JobRecord summarizes one completed or running job for analysis.
type JobRecord struct {
	ID     uint32
	Nodes  int
	Traced bool
	Start  sim.Time
	End    sim.Time // zero while running
}

// Machine is the simulated iPSC/860.
type Machine struct {
	k   *sim.Kernel
	cfg Config
	rng *stats.RNG

	net         *topo.Network
	injector    *faults.Injector // nil on a healthy machine
	ioAttach    []topo.Attachment
	svcAttach   topo.Attachment
	fs          *cfs.FileSystem
	clocks      []*DriftClock
	nodeBuffers []*trace.NodeBuffer
	collector   *trace.Collector // nil on an untraced machine

	alloc   *buddyAllocator
	queue   []queuedJob
	running map[uint32]*runningJob
	nextJob uint32

	jobRecords []JobRecord
	jobLog     *trace.NodeBuffer // the "separate mechanism" for job starts/ends

	finished bool
}

type runningJob struct {
	id      uint32
	base    int
	nodes   int
	traced  bool // the job's CFS calls are recorded
	pending int  // node programs still running
	record  int  // index into jobRecords
}

// transport adapts the interconnect to the cfs.Transport interface.
// CFS compute nodes message the I/O node's host over the network, then
// cross the peripheral link.
type transport struct{ m *Machine }

func (t transport) ToIONode(computeNode, ioNode, bytes int) sim.Time {
	return t.m.ioAttach[ioNode].LatencyFrom(computeNode, bytes)
}

func (t transport) FromIONode(ioNode, computeNode, bytes int) sim.Time {
	return t.m.ioAttach[ioNode].LatencyFrom(computeNode, bytes)
}

// Arena bundles the pools a machine draws its trace and file-system
// storage from: the trace pipeline's event chunks and collector block
// slice, and the file system's files, handles and open groups. A
// machine built without one gets a private Arena, so a spilled trace's
// chunks and finished node programs' handles cycle within the study;
// core's sweep worker passes one Arena to every machine it builds, so
// its pools also serve the worker's next study. The zero value is
// ready to use; an Arena is not safe for concurrent use.
type Arena struct {
	Trace trace.Arena
	CFS   cfs.Arena
}

// New builds the machine on the given kernel.
func New(k *sim.Kernel, cfg Config) *Machine { return NewWith(k, cfg, nil) }

// NewWith builds the machine on the given kernel, drawing reusable
// storage from the arena (a private one when it is nil).
func NewWith(k *sim.Kernel, cfg Config, arena *Arena) *Machine {
	if arena == nil {
		arena = new(Arena)
	}
	m := build(k, cfg, arena)
	m.instrument(arena)
	return m
}

// NewUntraced builds the machine without the CHARISMA instrumentation:
// no drift clocks, node trace buffers, job log or collector, and every
// job runs on an untraced CFS client whatever its JobSpec.Traced says.
// FinishTracing returns nil, TraceRecords and TraceMessages report 0,
// and the trace accessors (Clock, TraceHeader, SetTraceSink,
// TraceSinkErr) must not be called.
//
// Tracing adds only trace-block messages to the service node, so the
// untraced machine serves the same CFS requests at the same simulated
// times as a traced one. The exception is a network that draws
// per-message jitter (faults.Net.JitterMicros): trace blocks draw from
// the same jitter stream, so removing them moves every later message's
// delay.
func NewUntraced(k *sim.Kernel, cfg Config) *Machine { return build(k, cfg, new(Arena)) }

// build assembles the machine minus its tracing pipeline: network,
// allocator, I/O and service attachments, file system, and fault
// wiring.
func build(k *sim.Kernel, cfg Config, arena *Arena) *Machine {
	order, pow2 := orderFor(cfg.ComputeNodes)
	if !pow2 {
		panic(fmt.Sprintf("machine: compute nodes %d not a power of two", cfg.ComputeNodes))
	}
	m := &Machine{
		k:       k,
		cfg:     cfg,
		rng:     stats.NewRNG(cfg.Seed),
		net:     topo.New(k, cfg.ComputeNodes, cfg.Net),
		alloc:   newBuddyAllocator(order),
		running: make(map[uint32]*runningJob),
	}
	// I/O nodes attach to evenly spaced compute nodes.
	for i := 0; i < cfg.FS.IONodes; i++ {
		host := i * cfg.ComputeNodes / cfg.FS.IONodes
		m.ioAttach = append(m.ioAttach, m.net.Attach(host))
	}
	m.svcAttach = m.net.Attach(cfg.ServiceHost)
	m.fs = cfs.New(k, cfg.FS, transport{m})
	m.fs.SetArena(&arena.CFS)
	if cfg.Faults.Enabled() {
		if err := cfg.Faults.Validate(cfg.FS.IONodes, m.net.LinkClasses()); err != nil {
			panic(fmt.Sprintf("machine: %v", err))
		}
		// The injector splits its own RNG stream; Split does not
		// consume m.rng's state, so the clock streams instrument
		// draws are unchanged from a fault-free build.
		m.injector = faults.NewInjector(cfg.Faults, cfg.FS.IONodes, m.rng)
		if deg := m.injector.Net(); deg != nil {
			m.net.SetDegrader(deg)
		}
		wear, worn := m.injector.DiskWear()
		for i := 0; i < cfg.FS.IONodes; i++ {
			if ns := m.injector.Node(i); ns != nil {
				m.fs.IONode(i).SetFault(ns)
			}
			if worn {
				m.fs.IONode(i).Disk().SetWear(disk.Wear{
					SeekMul:     wear.SeekMultiplier,
					TransferMul: wear.TransferMultiplier,
					RampPerHour: wear.RampPerHour,
					Now:         k.Now,
				})
			}
		}
	}
	return m
}

// instrument adds the CHARISMA tracing pipeline: per-node drifting
// clocks, per-node trace buffers shipping blocks to the service node's
// collector, and the resource manager's job log.
func (m *Machine) instrument(arena *Arena) {
	k, cfg := m.k, m.cfg
	// Per-node drifting clocks; the collector's clock is the reference
	// timebase (offset 0, drift 0), so corrected trace times are
	// directly comparable to true simulation times.
	clockRNG := m.rng.Split(0x10c5)
	for n := 0; n < cfg.ComputeNodes; n++ {
		m.clocks = append(m.clocks,
			RandomDriftClock(k, clockRNG.Split(uint64(n)), cfg.MaxClockOffset, cfg.MaxClockDriftPPM))
	}
	collectorClock := NewDriftClock(k, 0, 0)
	m.collector = trace.NewCollector(collectorClock, trace.Header{
		ComputeNodes: uint16(cfg.ComputeNodes),
		IONodes:      uint16(cfg.FS.IONodes),
		BlockBytes:   uint32(cfg.FS.BlockBytes),
		BufferBytes:  uint32(cfg.TraceBufferBytes),
		Seed:         cfg.Seed,
	}, &arena.Trace)
	// Per-node trace buffers ship blocks over the network to the
	// service node's collector.
	for n := 0; n < cfg.ComputeNodes; n++ {
		node := n
		nb := trace.NewNodeBuffer(
			uint16(node), m.clocks[node], cfg.TraceBufferBytes, &arena.Trace,
			func(blk trace.Block) {
				bytes := len(blk.Events) * trace.EventSize
				m.svcAttach.SendTo(node, bytes, func() {
					m.collector.Deliver(blk)
				})
			})
		m.nodeBuffers = append(m.nodeBuffers, nb)
	}
	// Job starts/ends are logged by the resource manager on the
	// service node itself: no drift, no network hop.
	m.jobLog = trace.NewNodeBuffer(uint16(cfg.ComputeNodes), collectorClock,
		cfg.TraceBufferBytes, &arena.Trace, func(blk trace.Block) { m.collector.Deliver(blk) })
}

// Kernel returns the simulation kernel.
func (m *Machine) Kernel() *sim.Kernel { return m.k }

// SetTraceSink switches the collector to streaming mode: every block
// is written to sink on arrival instead of retained in memory, so the
// tracing pipeline's footprint stays bounded by the per-node buffers
// however long the study runs (see core.RunStudyStreaming). Call it
// before any job runs; the first sink error is sticky and reported by
// TraceSinkErr.
func (m *Machine) SetTraceSink(s trace.BlockSink) { m.collector.SetSink(s) }

// TraceSinkErr returns the first error the trace sink reported.
func (m *Machine) TraceSinkErr() error { return m.collector.Err() }

// TraceHeader returns the header of the trace being collected.
func (m *Machine) TraceHeader() trace.Header { return m.collector.Header() }

// ComputeNodes returns the machine's compute-node count (the largest
// job it can run).
func (m *Machine) ComputeNodes() int { return m.cfg.ComputeNodes }

// FS returns the file system.
func (m *Machine) FS() *cfs.FileSystem { return m.fs }

// Preload creates a file with all blocks allocated before the
// simulation starts, modeling data sets that predate the traced
// window. It is the workload generator's loading dock (see
// workload.Generator.Install).
func (m *Machine) Preload(name string, size int64) error {
	_, err := m.fs.Preload(name, size)
	return err
}

// Network returns the interconnect.
func (m *Machine) Network() *topo.Network { return m.net }

// FaultReport returns the degradation summary for a faulted machine,
// or nil when the machine ran healthy. Call it after the simulation.
func (m *Machine) FaultReport() *faults.Report {
	if m.injector == nil {
		return nil
	}
	wearExtra := make([]sim.Time, m.cfg.FS.IONodes)
	for i := range wearExtra {
		wearExtra[i] = m.fs.IONode(i).Disk().WearExtra()
	}
	return m.injector.Report(wearExtra)
}

// IONodeQueueStat is one I/O node's observed queueing behavior over a
// study: batches (request messages) served, total queue wait, and
// total service time. The counters are observation-only — recording
// them never perturbs simulated timing — and are the ground truth the
// analytical twin's conformance suite compares against.
type IONodeQueueStat struct {
	Batches int64
	Wait    sim.Time
	Service sim.Time
}

// IONodeQueueStats returns the per-I/O-node queueing counters. Call it
// after the simulation.
func (m *Machine) IONodeQueueStats() []IONodeQueueStat {
	out := make([]IONodeQueueStat, m.cfg.FS.IONodes)
	for i := range out {
		b, w, s := m.fs.IONode(i).QueueStats()
		out[i] = IONodeQueueStat{Batches: b, Wait: w, Service: s}
	}
	return out
}

// Clock returns compute node n's local clock.
func (m *Machine) Clock(n int) *DriftClock { return m.clocks[n] }

// RunningJobs reports the number of jobs currently on nodes.
func (m *Machine) RunningJobs() int { return len(m.running) }

// QueuedJobs reports the number of jobs waiting for nodes.
func (m *Machine) QueuedJobs() int { return len(m.queue) }

// JobRecords returns start/end bookkeeping for all jobs seen so far.
func (m *Machine) JobRecords() []JobRecord { return m.jobRecords }

// Submit enqueues a job at the current virtual time. Jobs start in
// submission order as soon as a subcube of the requested size is free
// (first-fit over the queue, like NQS with backfill).
func (m *Machine) Submit(spec JobSpec) uint32 {
	if m.finished {
		panic("machine: submit after FinishTracing")
	}
	if _, pow2 := orderFor(spec.Nodes); !pow2 || spec.Nodes > m.cfg.ComputeNodes {
		panic(fmt.Sprintf("machine: job wants %d nodes", spec.Nodes))
	}
	m.nextJob++
	id := m.nextJob
	m.queue = append(m.queue, queuedJob{spec: spec, id: id})
	m.trySchedule()
	return id
}

// SubmitAt schedules a Submit at absolute virtual time t.
func (m *Machine) SubmitAt(t sim.Time, spec JobSpec) {
	m.k.At(t, func() { m.Submit(spec) })
}

// trySchedule starts every queued job that fits, in queue order.
func (m *Machine) trySchedule() {
	kept := m.queue[:0]
	for _, qj := range m.queue {
		if base, ok := m.alloc.Alloc(qj.spec.Nodes); ok {
			m.startJob(qj, base)
		} else {
			kept = append(kept, qj)
		}
	}
	m.queue = kept
}

func (m *Machine) startJob(qj queuedJob, base int) {
	spec := qj.spec
	rj := &runningJob{
		id:      qj.id,
		base:    base,
		nodes:   spec.Nodes,
		traced:  spec.Traced && m.collector != nil,
		pending: spec.Nodes,
		record:  len(m.jobRecords),
	}
	m.running[qj.id] = rj
	m.jobRecords = append(m.jobRecords, JobRecord{
		ID: qj.id, Nodes: spec.Nodes, Traced: spec.Traced, Start: m.k.Now(),
	})
	m.logJob(trace.EvJobStart, qj.id, spec.Nodes, spec.Traced)

	for rank := 0; rank < spec.Nodes; rank++ {
		node := base + rank
		ctx := &NodeCtx{
			Node:     node,
			Rank:     rank,
			JobNodes: spec.Nodes,
			JobID:    qj.id,
		}
		var tracer cfs.Tracer = cfs.NopTracer{}
		if rj.traced {
			tracer = jobTracer{buf: m.nodeBuffers[node], job: qj.id}
		}
		client := cfs.NewClient(m.fs, qj.id, node, tracer)
		ctx.CFS = client
		m.k.Spawn(fmt.Sprintf("job%d/node%d", qj.id, node), func(p *sim.Proc) {
			ctx.P = p
			if spec.Body != nil {
				spec.Body(ctx)
			}
			// The node program is done: its client's handles can serve
			// the next job.
			client.Release()
			m.nodeDone(rj, node)
		})
	}
}

// jobTracer stamps the job ID onto events before buffering them.
type jobTracer struct {
	buf *trace.NodeBuffer
	job uint32
}

func (t jobTracer) Record(ev trace.Event) {
	ev.Job = t.job
	t.buf.Record(ev)
}

func (m *Machine) nodeDone(rj *runningJob, node int) {
	// A terminating process flushes its residual trace buffer, as the
	// instrumented library did at exit.
	if rj.traced {
		m.nodeBuffers[node].Flush()
	}
	rj.pending--
	if rj.pending > 0 {
		return
	}
	m.alloc.Free(rj.base)
	delete(m.running, rj.id)
	m.jobRecords[rj.record].End = m.k.Now()
	m.logJob(trace.EvJobEnd, rj.id, rj.nodes, rj.traced)
	m.trySchedule()
}

// logJob records a job start or end in the resource manager's job log;
// the untraced machine keeps none.
func (m *Machine) logJob(typ trace.EventType, job uint32, nodes int, traced bool) {
	if m.jobLog == nil {
		return
	}
	ev := trace.Event{Type: typ, Job: job, Size: int64(nodes)}
	if traced {
		ev.Flags |= trace.FlagInstrumented
	}
	m.jobLog.Record(ev)
}

// FinishTracing flushes every node's residual trace buffer and the job
// log, then returns the collected trace. Call it after the kernel has
// run to completion. On an untraced machine it only ends the study:
// later submissions panic, and the trace is nil.
func (m *Machine) FinishTracing() *trace.Trace {
	if len(m.running) > 0 || len(m.queue) > 0 {
		panic(fmt.Sprintf("machine: FinishTracing with %d running / %d queued jobs",
			len(m.running), len(m.queue)))
	}
	if m.collector == nil {
		m.finished = true
		return nil
	}
	if !m.finished {
		for _, b := range m.nodeBuffers {
			b.Flush()
		}
		m.jobLog.Flush()
		m.finished = true
		// Let the in-flight trace blocks reach the collector.
		m.k.Run()
	}
	return m.collector.Trace()
}

// TraceMessages reports how many trace blocks were shipped, the
// denominator for the paper's ">90% fewer messages" buffering claim.
func (m *Machine) TraceMessages() int64 {
	var n int64
	for _, b := range m.nodeBuffers {
		n += b.Flushes()
	}
	return n
}

// TraceRecords reports how many CFS events were recorded on nodes.
func (m *Machine) TraceRecords() int64 {
	var n int64
	for _, b := range m.nodeBuffers {
		n += b.Recorded()
	}
	return n
}
