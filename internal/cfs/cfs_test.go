package cfs

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// stubTransport charges a fixed latency per message.
type stubTransport struct{ lat sim.Time }

func (s stubTransport) ToIONode(_, _, _ int) sim.Time   { return s.lat }
func (s stubTransport) FromIONode(_, _, _ int) sim.Time { return s.lat }

// memTracer collects events in memory.
type memTracer struct{ events []trace.Event }

func (m *memTracer) Record(ev trace.Event) { m.events = append(m.events, ev) }

func (m *memTracer) ofType(t trace.EventType) []trace.Event {
	var out []trace.Event
	for _, e := range m.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

func newTestFS(k *sim.Kernel) *FileSystem {
	return New(k, DefaultConfig(), stubTransport{lat: 100 * sim.Microsecond})
}

// run executes body as a single process and finishes the simulation.
func run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	k := sim.New()
	fsHolder.k = k
	fsHolder.fs = newTestFS(k)
	k.Spawn("test", body)
	k.Run()
}

// fsHolder passes the fs into run() bodies without threading args.
var fsHolder struct {
	k  *sim.Kernel
	fs *FileSystem
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	tr := &memTracer{}
	run(t, func(p *sim.Proc) {
		fs := fsHolder.fs
		c := NewClient(fs, 1, 0, tr)
		h, err := c.Open(p, "/data/out", OWrOnly|OCreate, Mode0)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := h.Write(p, 10000); err != nil || n != 10000 {
			t.Fatalf("write: n=%d err=%v", n, err)
		}
		if h.Size() != 10000 {
			t.Fatalf("size = %d", h.Size())
		}
		if err := h.Close(p); err != nil {
			t.Fatal(err)
		}

		r, err := c.Open(p, "/data/out", ORdOnly, Mode0)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := r.Read(p, 4000); err != nil || n != 4000 {
			t.Fatalf("read1: n=%d err=%v", n, err)
		}
		if n, err := r.Read(p, 8000); err != nil || n != 6000 {
			t.Fatalf("read at EOF should be short: n=%d err=%v", n, err)
		}
		if n, err := r.Read(p, 100); err != nil || n != 0 {
			t.Fatalf("read past EOF: n=%d err=%v", n, err)
		}
		if err := r.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	if got := len(tr.ofType(trace.EvOpen)); got != 2 {
		t.Fatalf("open events = %d", got)
	}
	if got := len(tr.ofType(trace.EvRead)); got != 3 {
		t.Fatalf("read events = %d", got)
	}
	closes := tr.ofType(trace.EvClose)
	if len(closes) != 2 || closes[0].Size != 10000 {
		t.Fatalf("close events = %+v", closes)
	}
}

func TestOpenMissingFileFails(t *testing.T) {
	run(t, func(p *sim.Proc) {
		c := NewClient(fsHolder.fs, 1, 0, nil)
		if _, err := c.Open(p, "/nope", ORdOnly, Mode0); err != ErrNotFound {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestOpenBadFlagsAndMode(t *testing.T) {
	run(t, func(p *sim.Proc) {
		c := NewClient(fsHolder.fs, 1, 0, nil)
		if _, err := c.Open(p, "/x", OCreate, Mode0); err != ErrBadAccess {
			t.Fatalf("no access bits: %v", err)
		}
		if _, err := c.Open(p, "/x", ORdWr|OCreate, IOMode(9)); err != ErrBadMode {
			t.Fatalf("bad mode: %v", err)
		}
	})
}

func TestAccessEnforcement(t *testing.T) {
	run(t, func(p *sim.Proc) {
		c := NewClient(fsHolder.fs, 1, 0, nil)
		h, err := c.Open(p, "/f", OWrOnly|OCreate, Mode0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Read(p, 10); err != ErrBadAccess {
			t.Fatalf("read on write-only: %v", err)
		}
		h.Write(p, 100)
		h.Close(p)
		r, _ := c.Open(p, "/f", ORdOnly, Mode0)
		if _, err := r.Write(p, 10); err != ErrBadAccess {
			t.Fatalf("write on read-only: %v", err)
		}
	})
}

func TestClosedHandleRejectsOps(t *testing.T) {
	run(t, func(p *sim.Proc) {
		c := NewClient(fsHolder.fs, 1, 0, nil)
		h, _ := c.Open(p, "/f", ORdWr|OCreate, Mode0)
		h.Close(p)
		if _, err := h.Read(p, 1); err != ErrClosed {
			t.Fatalf("read: %v", err)
		}
		if _, err := h.Write(p, 1); err != ErrClosed {
			t.Fatalf("write: %v", err)
		}
		if err := h.Seek(p, 0); err != ErrClosed {
			t.Fatalf("seek: %v", err)
		}
		if err := h.Close(p); err != ErrClosed {
			t.Fatalf("double close: %v", err)
		}
	})
}

func TestSeekMovesPointer(t *testing.T) {
	tr := &memTracer{}
	run(t, func(p *sim.Proc) {
		c := NewClient(fsHolder.fs, 1, 0, tr)
		h, _ := c.Open(p, "/f", ORdWr|OCreate, Mode0)
		h.Write(p, 1000)
		if err := h.Seek(p, 200); err != nil {
			t.Fatal(err)
		}
		if h.Pointer() != 200 {
			t.Fatalf("pointer = %d", h.Pointer())
		}
		if n, _ := h.Read(p, 100); n != 100 {
			t.Fatalf("read after seek: %d", n)
		}
		if h.Pointer() != 300 {
			t.Fatalf("pointer after read = %d", h.Pointer())
		}
		if err := h.Seek(p, -1); err != ErrBadRequest {
			t.Fatalf("negative seek: %v", err)
		}
	})
	reads := tr.ofType(trace.EvRead)
	if len(reads) != 1 || reads[0].Offset != 200 {
		t.Fatalf("read event = %+v", reads)
	}
	if len(tr.ofType(trace.EvSeek)) != 1 {
		t.Fatal("seek not traced")
	}
}

func TestReadAtWriteAtMode0Only(t *testing.T) {
	run(t, func(p *sim.Proc) {
		c := NewClient(fsHolder.fs, 1, 0, nil)
		h, _ := c.Open(p, "/f", ORdWr|OCreate, Mode0)
		if n, err := h.WriteAt(p, 8192, 100); err != nil || n != 100 {
			t.Fatalf("WriteAt: %d %v", n, err)
		}
		if h.Size() != 8292 {
			t.Fatalf("sparse write size = %d", h.Size())
		}
		if n, err := h.ReadAt(p, 8192, 100); err != nil || n != 100 {
			t.Fatalf("ReadAt: %d %v", n, err)
		}
		h.Close(p)

		s, _ := c.Open(p, "/shared", ORdWr|OCreate, Mode1)
		if _, err := s.ReadAt(p, 0, 10); err != ErrBadMode {
			t.Fatalf("ReadAt on mode 1: %v", err)
		}
		if _, err := s.WriteAt(p, 0, 10); err != ErrBadMode {
			t.Fatalf("WriteAt on mode 1: %v", err)
		}
	})
}

func TestPreloadAndSize(t *testing.T) {
	run(t, func(p *sim.Proc) {
		fs := fsHolder.fs
		id, err := fs.Preload("/input", 100000)
		if err != nil || id == 0 {
			t.Fatalf("preload: %v", err)
		}
		if !fs.Exists("/input") {
			t.Fatal("preloaded file missing")
		}
		if sz, _ := fs.Size("/input"); sz != 100000 {
			t.Fatalf("size = %d", sz)
		}
		if _, err := fs.Preload("/input", 1); err != ErrExists {
			t.Fatalf("duplicate preload: %v", err)
		}
		if _, err := fs.Size("/absent"); err != ErrNotFound {
			t.Fatalf("size of absent: %v", err)
		}
		c := NewClient(fs, 1, 0, nil)
		h, err := c.Open(p, "/input", ORdOnly, Mode0)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := h.Read(p, 100000); n != 100000 {
			t.Fatalf("read preloaded: %d", n)
		}
		h.Close(p)
	})
}

func TestDelete(t *testing.T) {
	tr := &memTracer{}
	run(t, func(p *sim.Proc) {
		fs := fsHolder.fs
		c := NewClient(fs, 1, 0, tr)
		h, _ := c.Open(p, "/tmp/scratch", ORdWr|OCreate, Mode0)
		h.Write(p, 5000)
		if err := c.Delete(p, "/tmp/scratch"); err != nil {
			t.Fatal(err)
		}
		if fs.Exists("/tmp/scratch") {
			t.Fatal("deleted file still visible")
		}
		if _, err := h.Read(p, 10); err != ErrDeleted {
			t.Fatalf("read of deleted file: %v", err)
		}
		if err := c.Delete(p, "/tmp/scratch"); err != ErrNotFound {
			t.Fatalf("double delete: %v", err)
		}
	})
	if len(tr.ofType(trace.EvDelete)) != 1 {
		t.Fatal("delete not traced")
	}
}

func TestMode1SharedPointer(t *testing.T) {
	k := sim.New()
	fs := newTestFS(k)
	offsets := make(map[int]int64)
	fs.Preload("/shared", 1<<20)
	for node := 0; node < 4; node++ {
		node := node
		k.Spawn("n", func(p *sim.Proc) {
			c := NewClient(fs, 1, node, nil)
			h, err := c.Open(p, "/shared", ORdOnly, Mode1)
			if err != nil {
				t.Error(err)
				return
			}
			// Record where this node's read landed via the pointer.
			before := h.Pointer()
			h.Read(p, 1000)
			offsets[node] = before
			h.Close(p)
		})
	}
	k.Run()
	seen := make(map[int64]bool)
	for node, off := range offsets {
		if off%1000 != 0 || off >= 4000 {
			t.Fatalf("node %d read at %d", node, off)
		}
		if seen[off] {
			t.Fatalf("offset %d claimed twice", off)
		}
		seen[off] = true
	}
}

func TestMode2RoundRobinOrder(t *testing.T) {
	k := sim.New()
	fs := newTestFS(k)
	fs.Preload("/rr", 1<<20)
	var order []int
	for _, node := range []int{2, 0, 1} { // spawn out of order
		node := node
		k.Spawn("n", func(p *sim.Proc) {
			c := NewClient(fs, 1, node, nil)
			h, err := c.Open(p, "/rr", ORdOnly, Mode2)
			if err != nil {
				t.Error(err)
				return
			}
			p.Sleep(sim.Time(100 * (3 - node))) // arrive in reverse node order
			for i := 0; i < 3; i++ {
				h.Read(p, 100)
				order = append(order, node)
			}
			h.Close(p)
		})
	}
	// Let all three open before any reads: spawn order above plus the
	// sleeps makes node 2 try first, but round-robin must serve 0,1,2.
	k.Run()
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("round-robin violated: %v", order)
		}
	}
}

func TestMode3SizeEnforcement(t *testing.T) {
	k := sim.New()
	fs := newTestFS(k)
	fs.Preload("/m3", 1<<20)
	var errs []error
	k.Spawn("a", func(p *sim.Proc) {
		c := NewClient(fs, 1, 0, nil)
		h, _ := c.Open(p, "/m3", ORdOnly, Mode3)
		_, err := h.Read(p, 512)
		errs = append(errs, err)
		_, err = h.Read(p, 512)
		errs = append(errs, err)
		_, err = h.Read(p, 1024) // size change: must fail
		errs = append(errs, err)
		h.Close(p)
	})
	k.Run()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("fixed-size reads failed: %v", errs)
	}
	if errs[2] != ErrSizeMismatch {
		t.Fatalf("mismatched size error = %v", errs[2])
	}
}

func TestModeCountsTracked(t *testing.T) {
	run(t, func(p *sim.Proc) {
		fs := fsHolder.fs
		c := NewClient(fs, 1, 0, nil)
		h0, _ := c.Open(p, "/a", ORdWr|OCreate, Mode0)
		h1, _ := c.Open(p, "/b", ORdWr|OCreate, Mode1)
		h0.Close(p)
		h1.Close(p)
		if fs.Opens() != 2 {
			t.Fatalf("opens = %d", fs.Opens())
		}
		if fs.ModeCount(Mode0) != 1 || fs.ModeCount(Mode1) != 1 {
			t.Fatal("mode counts wrong")
		}
	})
}

func TestStripingSpreadsBlocksOverIONodes(t *testing.T) {
	k := sim.New()
	fs := newTestFS(k)
	k.Spawn("writer", func(p *sim.Proc) {
		c := NewClient(fs, 1, 0, nil)
		h, _ := c.Open(p, "/big", OWrOnly|OCreate, Mode0)
		h.Write(p, 40*4096) // exactly 4 blocks per I/O node
		h.Close(p)
	})
	k.Run()
	for i := 0; i < fs.Config().IONodes; i++ {
		if reqs := fs.IONode(i).Requests(); reqs != 4 {
			t.Fatalf("I/O node %d got %d block requests, want 4", i, reqs)
		}
	}
}

func TestIONodeCachingSpeedsRereads(t *testing.T) {
	k := sim.New()
	fs := newTestFS(k)
	fs.Preload("/hot", 64*4096)
	var cold, warm sim.Time
	k.Spawn("reader", func(p *sim.Proc) {
		c := NewClient(fs, 1, 0, nil)
		h, _ := c.Open(p, "/hot", ORdOnly, Mode0)
		t0 := p.Now()
		h.Read(p, 64*4096)
		cold = p.Now() - t0
		h.Seek(p, 0)
		t1 := p.Now()
		h.Read(p, 64*4096)
		warm = p.Now() - t1
		h.Close(p)
	})
	k.Run()
	if warm*2 >= cold {
		t.Fatalf("warm read %v not much faster than cold %v", warm, cold)
	}
	var hits int64
	for i := 0; i < fs.Config().IONodes; i++ {
		hits += fs.IONode(i).CacheHits()
	}
	if hits != 64 {
		t.Fatalf("cache hits = %d, want 64", hits)
	}
}

func TestDiskOpsCounted(t *testing.T) {
	k := sim.New()
	fs := newTestFS(k)
	k.Spawn("w", func(p *sim.Proc) {
		c := NewClient(fs, 1, 0, nil)
		h, _ := c.Open(p, "/f", OWrOnly|OCreate, Mode0)
		h.Write(p, 10*4096)
		h.Close(p)
	})
	k.Run()
	if fs.TotalDiskOps() != 10 {
		t.Fatalf("disk ops = %d", fs.TotalDiskOps())
	}
}

func TestConcurrentWritersDistinctFiles(t *testing.T) {
	// The paper's dominant pattern: each node writes its own file.
	k := sim.New()
	fs := newTestFS(k)
	tr := &memTracer{}
	const nodes = 16
	for node := 0; node < nodes; node++ {
		node := node
		k.Spawn("writer", func(p *sim.Proc) {
			c := NewClient(fs, 7, node, tr)
			name := "/out/part-" + string(rune('a'+node))
			h, err := c.Open(p, name, OWrOnly|OCreate, Mode0)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 20; i++ {
				if _, err := h.Write(p, 1000); err != nil {
					t.Error(err)
				}
			}
			h.Close(p)
		})
	}
	k.Run()
	if got := len(tr.ofType(trace.EvOpen)); got != nodes {
		t.Fatalf("opens = %d", got)
	}
	closes := tr.ofType(trace.EvClose)
	for _, cl := range closes {
		if cl.Size != 20000 {
			t.Fatalf("file size at close = %d, want 20000", cl.Size)
		}
	}
}

func TestInterleavedReadOffsets(t *testing.T) {
	// Interleaved access: node i reads records i, i+P, i+2P, ... Each
	// node's trace must show sequential but non-consecutive offsets.
	k := sim.New()
	fs := newTestFS(k)
	const P, rec = 4, 1000
	fs.Preload("/matrix", 12*P*rec)
	tracers := make([]*memTracer, P)
	for node := 0; node < P; node++ {
		node := node
		tracers[node] = &memTracer{}
		k.Spawn("r", func(p *sim.Proc) {
			c := NewClient(fs, 3, node, tracers[node])
			h, _ := c.Open(p, "/matrix", ORdOnly, Mode0)
			for i := 0; i < 12; i++ {
				h.ReadAt(p, int64((i*P+node)*rec), rec)
			}
			h.Close(p)
		})
	}
	k.Run()
	for node, tr := range tracers {
		reads := tr.ofType(trace.EvRead)
		if len(reads) != 12 {
			t.Fatalf("node %d: %d reads", node, len(reads))
		}
		for i, ev := range reads {
			want := int64((i*P + node) * rec)
			if ev.Offset != want {
				t.Fatalf("node %d read %d at %d, want %d", node, i, ev.Offset, want)
			}
			// Interval between successive requests is (P-1)*rec.
			if i > 0 {
				gap := ev.Offset - (reads[i-1].Offset + reads[i-1].Size)
				if gap != (P-1)*rec {
					t.Fatalf("interval = %d", gap)
				}
			}
		}
	}
}

func TestTimeAdvancesWithIO(t *testing.T) {
	k := sim.New()
	fs := newTestFS(k)
	var elapsed sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		c := NewClient(fs, 1, 0, nil)
		h, _ := c.Open(p, "/f", OWrOnly|OCreate, Mode0)
		start := p.Now()
		h.Write(p, 1<<20)
		elapsed = p.Now() - start
		h.Close(p)
	})
	k.Run()
	// 1 MB over ten ~1.5 MB/s disks: at least ~60 ms of simulated time.
	if elapsed < 50*sim.Millisecond {
		t.Fatalf("1 MB write took only %v of simulated time", elapsed)
	}
}

func TestZeroSizeOps(t *testing.T) {
	run(t, func(p *sim.Proc) {
		c := NewClient(fsHolder.fs, 1, 0, nil)
		h, _ := c.Open(p, "/f", ORdWr|OCreate, Mode0)
		if n, err := h.Write(p, 0); n != 0 || err != nil {
			t.Fatalf("zero write: %d %v", n, err)
		}
		if n, err := h.Read(p, 0); n != 0 || err != nil {
			t.Fatalf("zero read: %d %v", n, err)
		}
		if _, err := h.Write(p, -1); err != ErrBadRequest {
			t.Fatalf("negative write: %v", err)
		}
	})
}

func TestPrefetchSpeedsSequentialReads(t *testing.T) {
	run := func(prefetch bool) (sim.Time, int64) {
		k := sim.New()
		cfg := DefaultConfig()
		cfg.IONode.Prefetch = prefetch
		fs := New(k, cfg, stubTransport{lat: 100 * sim.Microsecond})
		fs.Preload("/seq", 256*4096)
		var elapsed sim.Time
		k.Spawn("r", func(p *sim.Proc) {
			c := NewClient(fs, 1, 0, nil)
			h, _ := c.Open(p, "/seq", ORdOnly, Mode0)
			start := p.Now()
			for {
				n, err := h.Read(p, 4096)
				if err != nil || n == 0 {
					break
				}
			}
			elapsed = p.Now() - start
			h.Close(p)
		})
		k.Run()
		var prefetches int64
		for i := 0; i < cfg.IONodes; i++ {
			prefetches += fs.IONode(i).Prefetches()
		}
		return elapsed, prefetches
	}
	coldTime, noPrefetches := run(false)
	warmTime, prefetches := run(true)
	if noPrefetches != 0 {
		t.Fatalf("prefetches happened while disabled: %d", noPrefetches)
	}
	if prefetches == 0 {
		t.Fatal("no prefetches with readahead enabled")
	}
	if warmTime >= coldTime {
		t.Fatalf("readahead did not help sequential reads: %v vs %v", warmTime, coldTime)
	}
}

func TestPrefetchDoesNotChangeData(t *testing.T) {
	// Readahead must not change what a read returns, only its timing.
	for _, prefetch := range []bool{false, true} {
		k := sim.New()
		cfg := DefaultConfig()
		cfg.IONode.Prefetch = prefetch
		fs := New(k, cfg, stubTransport{lat: 100 * sim.Microsecond})
		fs.Preload("/f", 10000)
		k.Spawn("r", func(p *sim.Proc) {
			c := NewClient(fs, 1, 0, nil)
			h, _ := c.Open(p, "/f", ORdOnly, Mode0)
			if n, err := h.Read(p, 20000); err != nil || n != 10000 {
				t.Errorf("prefetch=%v: n=%d err=%v", prefetch, n, err)
			}
			h.Close(p)
		})
		k.Run()
	}
}

// TestHandlesPooledWithoutArena: a file system built without an arena
// pools handles in one of its own, so a second job's opens take the
// handles the first job released and allocate none. A handle still
// returns to the pool only at Release: reopening within a job takes a
// new handle, and a closed one keeps reporting ErrClosed.
func TestHandlesPooledWithoutArena(t *testing.T) {
	k := sim.New()
	fs := newTestFS(k)
	if _, err := fs.Preload("/in", 1<<16); err != nil {
		t.Fatal(err)
	}
	opens := func(job uint32, mode IOMode) (hs []*Handle) {
		k.Spawn("job", func(p *sim.Proc) {
			c := NewClient(fs, job, 0, nil)
			for i := 0; i < 3; i++ {
				h, err := c.Open(p, "/in", ORdOnly, mode)
				if err != nil {
					t.Error(err)
					return
				}
				if err := h.Close(p); err != nil {
					t.Error(err)
				}
				hs = append(hs, h)
			}
			if _, err := hs[0].Read(p, 10); err != ErrClosed {
				t.Errorf("job %d: read on a closed handle: %v, want ErrClosed", job, err)
			}
			c.Release()
		})
		k.Run()
		return hs
	}
	first := opens(1, Mode1)
	if first[0] == first[1] || first[1] == first[2] || first[0] == first[2] {
		t.Fatal("a closed handle served another open of its job")
	}
	second := opens(2, Mode0)
	for _, h := range second {
		if !slices.Contains(first, h) {
			t.Fatal("the second job's open allocated a handle")
		}
	}
}
