package cfs

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/trace"
)

// diffTransport's latency depends on the compute node, the I/O node
// and the message size, so a call's legs finish out of order and some
// land together. With jitter on, every message also draws from one
// stream, as a jittered network does: any change in the order of
// ToIONode and FromIONode calls then changes every later latency.
type diffTransport struct {
	jitter bool
	state  uint64
}

func (t *diffTransport) lat(computeNode, ioNode, bytes int) sim.Time {
	l := sim.Time(10+(computeNode*7+ioNode*13)%5*40) + sim.Time(bytes/2048)*3
	if t.jitter {
		t.state = t.state*6364136223846793005 + 1442695040888963407
		l += sim.Time(t.state >> 61)
	}
	return l
}

func (t *diffTransport) ToIONode(c, io, bytes int) sim.Time   { return t.lat(c, io, bytes) }
func (t *diffTransport) FromIONode(io, c, bytes int) sim.Time { return t.lat(c, io, bytes) }

// stubFault defers service out of periodic outage windows and slows
// service that starts in odd periods.
type stubFault struct{ period, outage sim.Time }

func (f stubFault) Admit(start sim.Time, _ int) sim.Time {
	if start%f.period < f.outage {
		return start - start%f.period + f.outage
	}
	return start
}

func (f stubFault) Scale(start, dur sim.Time) sim.Time {
	if (start/f.period)%2 == 1 {
		return dur * 3 / 2
	}
	return dur
}

// The operations of a differential script.
const (
	opRead = iota
	opWrite
	opReadAt
	opWriteAt
	opReadStrided
	opWriteStrided
	opDelete
	opReopen
	numOps
)

type diffOp struct {
	kind      int
	file      int
	think     sim.Time
	off, size int64
	stride    int64
	count     int
}

// diffScript is one randomized machine and workload.
type diffScript struct {
	cfg     Config
	jitter  bool
	faulty  []bool  // per I/O node
	preload []int64 // per file: preloaded size, or -1
	nodes   []int   // per client: its compute node
	ops     [][]diffOp
}

// opSize draws a request size from 1 B to 1 MB, roughly log-uniformly.
func opSize(rng *rand.Rand) int64 {
	s := int64(1) << rng.Intn(21)
	return max(1, s/2+rng.Int63n(s/2+1))
}

func newDiffScript(rng *rand.Rand) diffScript {
	cfg := DefaultConfig()
	cfg.IONodes = 1 + rng.Intn(16)
	cfg.IONode.CacheBuffers = 4 + rng.Intn(64)
	cfg.IONode.Prefetch = rng.Intn(2) == 0
	switch rng.Intn(3) {
	case 0:
		cfg.IONode.Disk = disk.NVMe()
	case 1:
		// A small volume, so writes can run out of space.
		cfg.IONode.Disk.CapacityBytes = int64(64+rng.Intn(512)) * 4096
		cfg.IONode.Disk.Cylinders = 16
	}
	s := diffScript{cfg: cfg, jitter: rng.Intn(2) == 0}
	s.faulty = make([]bool, cfg.IONodes)
	for i := range s.faulty {
		s.faulty[i] = rng.Intn(4) == 0
	}
	files := 1 + rng.Intn(5)
	for f := 0; f < files; f++ {
		size := int64(-1)
		if rng.Intn(2) == 0 {
			size = opSize(rng) * int64(1+rng.Intn(4))
		}
		s.preload = append(s.preload, size)
	}
	// Clients share compute nodes about half the time.
	clients := 1 + rng.Intn(8)
	for c := 0; c < clients; c++ {
		s.nodes = append(s.nodes, rng.Intn(1+clients/2))
		var ops []diffOp
		for i, n := 0, rng.Intn(40); i < n; i++ {
			op := diffOp{kind: rng.Intn(numOps), file: rng.Intn(files)}
			if rng.Intn(3) > 0 {
				op.think = sim.Time(rng.Intn(5000))
			}
			if op.kind == opDelete && rng.Intn(3) > 0 {
				op.kind = opRead // keep deletions rare
			}
			op.size = opSize(rng)
			op.off = rng.Int63n(1 << 21)
			if rng.Intn(3) == 0 {
				op.off &^= 4095 // block aligned
			}
			if op.kind == opReadStrided || op.kind == opWriteStrided {
				op.count = 1 + rng.Intn(8)
				op.size = max(1, op.size/int64(op.count))
				op.stride = op.size + rng.Int63n(3*op.size+4096)
			}
			ops = append(ops, op)
		}
		s.ops = append(s.ops, ops)
	}
	return s
}

// dataPath is how a script's handles move data: the file system's own
// calls (livePath), or the reference path's (refClient).
type dataPath interface {
	read(h *Handle, p *sim.Proc, size int64) (int64, error)
	write(h *Handle, p *sim.Proc, size int64) (int64, error)
	readAt(h *Handle, p *sim.Proc, off, size int64) (int64, error)
	writeAt(h *Handle, p *sim.Proc, off, size int64) (int64, error)
	readStrided(h *Handle, p *sim.Proc, off, rec, stride int64, count int) (int64, error)
	writeStrided(h *Handle, p *sim.Proc, off, rec, stride int64, count int) (int64, error)
}

type livePath struct{}

func (livePath) read(h *Handle, p *sim.Proc, size int64) (int64, error)  { return h.Read(p, size) }
func (livePath) write(h *Handle, p *sim.Proc, size int64) (int64, error) { return h.Write(p, size) }
func (livePath) readAt(h *Handle, p *sim.Proc, off, size int64) (int64, error) {
	return h.ReadAt(p, off, size)
}
func (livePath) writeAt(h *Handle, p *sim.Proc, off, size int64) (int64, error) {
	return h.WriteAt(p, off, size)
}
func (livePath) readStrided(h *Handle, p *sim.Proc, off, rec, stride int64, count int) (int64, error) {
	return h.ReadStrided(p, off, rec, stride, count)
}
func (livePath) writeStrided(h *Handle, p *sim.Proc, off, rec, stride int64, count int) (int64, error) {
	return h.WriteStrided(p, off, rec, stride, count)
}

// opResult is what one operation returned, and when.
type opResult struct {
	n    int64
	err  error
	done sim.Time
}

// nodeStats is everything an I/O node and its disk counted.
type nodeStats struct {
	requests, hits, prefetches int64
	batches                    int64
	wait, service              sim.Time
	reads, writes              int64
	busy                       sim.Time
}

// diffOutcome is everything the differential test compares.
type diffOutcome struct {
	results [][]opResult
	sizes   []int64 // per file at the end, -1 if absent
	nodes   []nodeStats
	events  []trace.Event
	end     sim.Time
}

// runDiffScript runs the script on a fresh file system, with each
// client's data calls going through path(client).
func runDiffScript(t *testing.T, s diffScript, path func(c *Client) dataPath) diffOutcome {
	t.Helper()
	k := sim.New()
	fs := New(k, s.cfg, &diffTransport{jitter: s.jitter})
	for i, f := range s.faulty {
		if f {
			fs.IONode(i).SetFault(stubFault{period: 20 * sim.Millisecond, outage: 3 * sim.Millisecond})
		}
	}
	name := func(f int) string { return fmt.Sprintf("/f%d", f) }
	for f, size := range s.preload {
		if size >= 0 {
			if _, err := fs.Preload(name(f), size); err != nil && !errors.Is(err, ErrNoSpace) {
				t.Fatal(err)
			}
		}
	}
	tr := &memTracer{}
	out := diffOutcome{results: make([][]opResult, len(s.ops))}
	for ci := range s.ops {
		c := NewClient(fs, uint32(ci+1), s.nodes[ci], tr)
		dp := path(c)
		k.Spawn(fmt.Sprintf("client%d", ci), func(p *sim.Proc) {
			handles := make([]*Handle, len(s.preload))
			open := func(f int) {
				h, err := c.Open(p, name(f), ORdWr|OCreate, Mode0)
				if err != nil {
					t.Errorf("client %d: open %s: %v", ci, name(f), err)
				}
				handles[f] = h
			}
			for f := range handles {
				open(f)
			}
			for _, op := range s.ops[ci] {
				p.Sleep(op.think)
				h := handles[op.file]
				var n int64
				var err error
				switch op.kind {
				case opRead:
					n, err = dp.read(h, p, op.size)
				case opWrite:
					n, err = dp.write(h, p, op.size)
				case opReadAt:
					n, err = dp.readAt(h, p, op.off, op.size)
				case opWriteAt:
					n, err = dp.writeAt(h, p, op.off, op.size)
				case opReadStrided:
					n, err = dp.readStrided(h, p, op.off, op.size, op.stride, op.count)
				case opWriteStrided:
					n, err = dp.writeStrided(h, p, op.off, op.size, op.stride, op.count)
				case opDelete:
					err = c.Delete(p, name(op.file))
				case opReopen:
					h.Close(p)
					open(op.file)
				}
				out.results[ci] = append(out.results[ci], opResult{n: n, err: err, done: p.Now()})
			}
			for _, h := range handles {
				h.Close(p)
			}
			c.Release()
		})
	}
	k.Run()
	out.end = k.Now()
	for f := range s.preload {
		size, err := fs.Size(name(f))
		if err != nil {
			size = -1
		}
		out.sizes = append(out.sizes, size)
	}
	for i := 0; i < s.cfg.IONodes; i++ {
		io := fs.IONode(i)
		st := nodeStats{
			requests: io.Requests(), hits: io.CacheHits(), prefetches: io.Prefetches(),
			reads: io.Disk().Reads(), writes: io.Disk().Writes(), busy: io.Disk().BusyTime(),
		}
		st.batches, st.wait, st.service = io.QueueStats()
		out.nodes = append(out.nodes, st)
	}
	out.events = tr.events
	return out
}

// TestTransferMatchesReference runs randomized scripts through the
// pooled transfer records and through the per-client dispatch tables
// they replaced, and requires every observable to match: each op's
// result and completion time, the trace, file sizes, and every I/O
// node's and disk's counters.
func TestTransferMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	scripts := 300
	if testing.Short() {
		scripts = 60
	}
	var ops, blocks int64
	for si := 0; si < scripts; si++ {
		s := newDiffScript(rng)
		got := runDiffScript(t, s, func(*Client) dataPath { return livePath{} })
		want := runDiffScript(t, s, func(c *Client) dataPath { return &refClient{Client: c} })
		for ci := range want.results {
			for oi, w := range want.results[ci] {
				if g := got.results[ci][oi]; g != w {
					t.Fatalf("script %d (%d I/O nodes, prefetch %v), client %d op %d %+v: got %+v, reference %+v",
						si, s.cfg.IONodes, s.cfg.IONode.Prefetch, ci, oi, s.ops[ci][oi], g, w)
				}
			}
			ops += int64(len(want.results[ci]))
		}
		if !reflect.DeepEqual(got.sizes, want.sizes) {
			t.Fatalf("script %d: file sizes %v, reference %v", si, got.sizes, want.sizes)
		}
		for i := range want.nodes {
			if got.nodes[i] != want.nodes[i] {
				t.Fatalf("script %d: I/O node %d counted %+v, reference %+v", si, i, got.nodes[i], want.nodes[i])
			}
			blocks += want.nodes[i].requests
		}
		if !reflect.DeepEqual(got.events, want.events) {
			t.Fatalf("script %d: traces differ", si)
		}
		if got.end != want.end {
			t.Fatalf("script %d: simulation ended at %v, reference %v", si, got.end, want.end)
		}
	}
	t.Logf("%d scripts, %d ops, %d block requests matched", scripts, ops, blocks)
}

// legTransport gives each I/O node its own request and response
// latency.
type legTransport struct{ to, from []sim.Time }

func (l legTransport) ToIONode(_, io, _ int) sim.Time   { return l.to[io] }
func (l legTransport) FromIONode(io, _, _ int) sim.Time { return l.from[io] }

// twoLegRead reads the first two blocks of a file whose blocks are
// unallocated, so each of the two I/O nodes serves its leg in exactly
// overhead + hit time. It reports how many events were pending once
// both legs had been served, and when the read returned.
func twoLegRead(t *testing.T, tp legTransport) (pending int, start, done sim.Time) {
	t.Helper()
	k := sim.New()
	cfg := DefaultConfig()
	cfg.IONodes = 2
	fs := New(k, cfg, tp)
	k.Spawn("reader", func(p *sim.Proc) {
		c := NewClient(fs, 1, 0, nil)
		h, err := c.Open(p, "/holes", ORdWr|OCreate, Mode0)
		if err != nil {
			t.Error(err)
			return
		}
		// One byte in block 2 leaves blocks 0 and 1 unallocated.
		if _, err := h.WriteAt(p, 2*4096, 1); err != nil {
			t.Error(err)
			return
		}
		start = p.Now()
		served := start + max(tp.to[0], tp.to[1]) + 1
		k.At(served, func() { pending = k.Pending() })
		if n, err := h.ReadAt(p, 0, 2*4096); n != 2*4096 || err != nil {
			t.Errorf("read: n=%d err=%v", n, err)
		}
		done = p.Now()
	})
	k.Run()
	return pending, start, done
}

// TestLegLandingFirstSchedulesNoEvent: the leg served second lands
// first, so its response counts down when it is served instead of
// scheduling a completion event; the read returns when the first leg's
// response lands.
func TestLegLandingFirstSchedulesNoEvent(t *testing.T) {
	const service = 200 + 100 // overhead + zero-fill hit, in us
	tp := legTransport{to: []sim.Time{10, 20}, from: []sim.Time{sim.Second, 1}}
	pending, start, done := twoLegRead(t, tp)
	if pending != 1 {
		t.Errorf("%d events pending after both legs were served, want 1 (the first leg's response)", pending)
	}
	if want := start + 10 + service + sim.Second; done != want {
		t.Errorf("read returned at %v, want %v", done, want)
	}
}

// TestLegsLandingTogetherBothSchedule: two legs land at the same
// instant. Neither is elided: the later-scheduled event must be the
// one that wakes the reader.
func TestLegsLandingTogetherBothSchedule(t *testing.T) {
	const service = 200 + 100
	tp := legTransport{to: []sim.Time{10, 20}, from: []sim.Time{1000, 990}}
	pending, start, done := twoLegRead(t, tp)
	if pending != 2 {
		t.Errorf("%d events pending after both legs were served, want 2", pending)
	}
	if want := start + 10 + service + 1000; done != want {
		t.Errorf("read returned at %v, want %v", done, want)
	}
}

// TestTransferRecordsBoundedByCallsInFlight: records return to the
// free list when their call does, so clients that never overlap share
// one record, and overlapping calls take one each.
func TestTransferRecordsBoundedByCallsInFlight(t *testing.T) {
	k := sim.New()
	fs := newTestFS(k)
	if _, err := fs.Preload("/in", 1<<20); err != nil {
		t.Fatal(err)
	}
	for job := 1; job <= 20; job++ {
		k.Spawn("seq", func(p *sim.Proc) {
			p.Sleep(sim.Time(job) * sim.Second)
			c := NewClient(fs, uint32(job), job, nil)
			h, _ := c.Open(p, "/in", ORdOnly, Mode0)
			h.Read(p, 40*4096)
			h.Close(p)
			c.Release()
		})
	}
	k.Run()
	if len(fs.xfers) != 1 {
		t.Fatalf("%d records after 20 serial clients, want 1", len(fs.xfers))
	}
	for node := 0; node < 3; node++ {
		k.Spawn("par", func(p *sim.Proc) {
			c := NewClient(fs, 30, node, nil)
			h, _ := c.Open(p, "/in", ORdOnly, Mode0)
			h.Read(p, 40*4096)
			h.Close(p)
		})
	}
	k.Run()
	if len(fs.xfers) != 3 {
		t.Fatalf("%d records after 3 overlapping reads, want 3", len(fs.xfers))
	}
	for _, x := range fs.xfers {
		for i := range x.legs {
			if l := &x.legs[i]; len(l.blocks) != 0 || l.bytes != 0 {
				t.Fatalf("returned record's leg %d holds %d blocks, %d bytes", i, len(l.blocks), l.bytes)
			}
		}
	}
}

// TestTransferRecordsCarryAcrossStudies: a file system recycled into
// an arena hands its free records to the next file system with the
// same I/O-node count, which rebinds them to its own I/O nodes; a file
// system with another count builds its own.
func TestTransferRecordsCarryAcrossStudies(t *testing.T) {
	a := new(Arena)
	study := func(ioNodes int) *FileSystem {
		k := sim.New()
		cfg := DefaultConfig()
		cfg.IONodes = ioNodes
		fs := New(k, cfg, stubTransport{lat: 100 * sim.Microsecond})
		fs.SetArena(a)
		if _, err := fs.Preload("/in", 1<<20); err != nil {
			t.Fatal(err)
		}
		for node := 0; node < 3; node++ {
			k.Spawn("par", func(p *sim.Proc) {
				c := NewClient(fs, 1, node, nil)
				h, _ := c.Open(p, "/in", ORdOnly, Mode0)
				h.Read(p, 40*4096)
				h.Close(p)
			})
		}
		k.Run()
		if len(fs.xfers) != 3 {
			t.Fatalf("%d records after 3 overlapping reads, want 3", len(fs.xfers))
		}
		return fs
	}
	first := study(4)
	pooled := slices.Clone(first.xfers)
	first.Recycle()
	second := study(4)
	for _, x := range second.xfers {
		if !slices.Contains(pooled, x) {
			t.Fatal("a file system built a record while the arena held three")
		}
		if x.fs != second {
			t.Fatal("a pooled record still points at the file system that built it")
		}
		for i := range x.legs {
			if x.legs[i].io != second.ionodes[i] {
				t.Fatalf("a pooled record's leg %d serves the old file system's I/O node", i)
			}
		}
	}
	second.Recycle()
	for _, x := range study(2).xfers {
		if slices.Contains(pooled, x) {
			t.Fatal("a 2-I/O-node file system took a record with 4 legs")
		}
	}
}

// TestPreloadNoSpaceChangesNothing: a preload that does not fit fails
// before it registers the file or takes any block.
func TestPreloadNoSpaceChangesNothing(t *testing.T) {
	k := sim.New()
	cfg := DefaultConfig()
	cfg.IONodes = 2
	cfg.IONode.Disk.CapacityBytes = 8 * 4096
	cfg.IONode.Disk.Cylinders = 1
	fs := New(k, cfg, stubTransport{})
	if _, err := fs.Preload("/big", 20*4096); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized preload: %v, want ErrNoSpace", err)
	}
	if fs.Exists("/big") {
		t.Fatal("failed preload left /big behind")
	}
	if _, err := fs.Preload("/small", 2*4096); err != nil {
		t.Fatalf("preload after a failed one: %v", err)
	}
	// Exactly the remaining 14 blocks fit; one more does not.
	if _, err := fs.Preload("/rest", 14*4096); err != nil {
		t.Fatalf("preload filling the volume: %v", err)
	}
	if _, err := fs.Preload("/more", 1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("preload on a full volume: %v, want ErrNoSpace", err)
	}
	// An uneven stripe: 3 blocks need 2 on node 0 and 1 on node 1.
	fs = New(k, cfg, stubTransport{})
	if _, err := fs.Preload("/a", 7*4096); err != nil { // 4 + 3
		t.Fatal(err)
	}
	if _, err := fs.Preload("/b", 9*4096); !errors.Is(err, ErrNoSpace) { // 5 + 4: node 0 has 4
		t.Fatalf("preload overflowing one node: %v, want ErrNoSpace", err)
	}
	if _, err := fs.Preload("/c", 7*4096); err != nil { // 4 + 3 on the (4, 5) left
		t.Fatalf("preload fitting the rest: %v", err)
	}
}

// checkBlockTable compares tb with want through get, at every mapped
// block, its neighbours, the ends of its page, the same slot of the
// next page and random probes, and through each, which must visit
// exactly want's blocks in ascending file-block order.
func checkBlockTable(t *testing.T, rng *rand.Rand, tb *blockTable, want map[int64]int32) {
	t.Helper()
	keys := make([]int64, 0, len(want))
	for b := range want {
		keys = append(keys, b)
	}
	slices.Sort(keys)
	const page = 1 << pageShift
	probes := []int64{0, denseBlockLimit - 1, denseBlockLimit}
	for _, b := range keys {
		first := b &^ (page - 1)
		probes = append(probes, b, b-1, b+1, first, first+page-1, b+page)
	}
	for i := 0; i < 64; i++ {
		probes = append(probes, rng.Int63n(2*denseBlockLimit))
	}
	for _, q := range probes {
		if q < 0 {
			continue
		}
		db, ok := tb.get(q)
		w, wok := want[q]
		if ok != wok || (ok && db != w) {
			t.Fatalf("get(%d) = %d, %v; want %d, %v", q, db, ok, w, wok)
		}
	}
	i := 0
	tb.each(func(fb int64, db int32) {
		if i >= len(keys) || fb != keys[i] || db != want[fb] {
			t.Fatalf("each visit %d is block %d -> %d; want the mapped blocks in ascending order", i, fb, db)
		}
		i++
	})
	if i != len(keys) {
		t.Fatalf("each visited %d blocks, want %d", i, len(keys))
	}
}

// TestBlockTableMatchesMap: the paged block table answers as a map
// from file block to disk block does. Random scripts mix sequential
// appends, holes within and across pages, indices on both sides of
// denseBlockLimit and sparse ones up to 2^40, with disk blocks over
// the whole 31-bit range. Growing the table never moves a page, and a
// write just below the limit adds one page, not a filled prefix.
func TestBlockTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var tb blockTable
		want := map[int64]int32{}
		var next int64
		for i, n := 0, rng.Intn(400); i < n; i++ {
			var b int64
			switch rng.Intn(5) {
			case 0, 1:
				b = next // sequential append
				next++
			case 2:
				b = next + rng.Int63n(300) // a hole, within a page or across several
			case 3:
				b = denseBlockLimit - 100 + rng.Int63n(200) // either side of the limit
			default:
				b = rng.Int63n(1 << 40)
			}
			db := rng.Int31()
			if rng.Intn(8) == 0 {
				db = math.MaxInt32
			}
			tb.set(b, db)
			want[b] = db
		}
		checkBlockTable(t, rng, &tb, want)
	}

	var tb blockTable
	tb.set(0, 7)
	page0 := tb.pages[0]
	for b := int64(1); b < 100<<pageShift; b++ {
		tb.set(b, int32(b))
	}
	if tb.pages[0] != page0 || page0[0] != 7 {
		t.Fatal("growing the table moved its first page")
	}

	tb = blockTable{}
	tb.set(denseBlockLimit-1, 3)
	pages := 0
	for _, p := range tb.pages {
		if p != nil {
			pages++
		}
	}
	if pages != 1 || len(tb.sparse) != 0 {
		t.Fatalf("a write below the limit made %d pages and %d sparse entries, want 1 and 0", pages, len(tb.sparse))
	}
}

// TestBlockTableDeleteRecreate: deleting a file frees its disk blocks
// in ascending file-block order and drops its table, so a file
// recreated under the same name starts empty, and so does a file
// struct the arena pooled at Recycle with its table still full.
func TestBlockTableDeleteRecreate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := &Arena{}
	// fill writes random blocks of f, a few beyond denseBlockLimit.
	fill := func(fs *FileSystem, f *file) map[int64]int32 {
		want := map[int64]int32{}
		for i, n := 0, 1+rng.Intn(300); i < n; i++ {
			b := rng.Int63n(2000)
			if rng.Intn(10) == 0 {
				b = denseBlockLimit + rng.Int63n(1000)
			}
			if _, ok := want[b]; ok {
				continue
			}
			db, err := fs.ioNodeFor(b).allocBlock()
			if err != nil {
				t.Fatal(err)
			}
			f.blocks.set(b, db)
			want[b] = db
		}
		return want
	}
	for round := 0; round < 20; round++ {
		fs := New(sim.New(), DefaultConfig(), stubTransport{})
		fs.SetArena(a)
		for gen := 0; gen < 3; gen++ {
			f := fs.create("/f", 1)
			checkBlockTable(t, rng, &f.blocks, map[int64]int32{})
			want := fill(fs, f)
			checkBlockTable(t, rng, &f.blocks, want)

			keys := make([]int64, 0, len(want))
			for b := range want {
				keys = append(keys, b)
			}
			slices.Sort(keys)
			freed := make([][]int32, len(fs.ionodes))
			for _, b := range keys {
				io := fs.ioNodeFor(b).ID()
				freed[io] = append(freed[io], want[b])
			}
			before := make([]int, len(fs.ionodes))
			for i, io := range fs.ionodes {
				before[i] = len(io.freeList)
			}
			fs.removeFile(f)
			for i, io := range fs.ionodes {
				if got := io.freeList[before[i]:]; !slices.Equal(got, freed[i]) {
					t.Fatalf("round %d: deleting freed %v on I/O node %d, want %v", round, got, i, freed[i])
				}
			}
			if f.blocks.pages != nil || f.blocks.sparse != nil {
				t.Fatal("a deleted file kept its block table")
			}
		}
		fill(fs, fs.create("/kept", 1))
		fs.Recycle()
	}
}
