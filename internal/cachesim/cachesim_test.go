package cachesim

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

const bs = 4096

func read(job uint32, node uint16, file uint64, off, size int64) trace.Event {
	return trace.Event{Type: trace.EvRead, Job: job, Node: node, File: file, Offset: off, Size: size}
}

func write(job uint32, node uint16, file uint64, off, size int64) trace.Event {
	return trace.Event{Type: trace.EvWrite, Job: job, Node: node, File: file, Offset: off, Size: size}
}

func TestReadOnlyFiles(t *testing.T) {
	events := []trace.Event{
		read(1, 0, 1, 0, 100),
		read(1, 0, 2, 0, 100),
		write(1, 0, 2, 0, 100), // file 2 is read-write
		write(1, 0, 3, 0, 100), // file 3 is write-only
	}
	ro := ReadOnlyFiles(events)
	if !ro[1] || ro[2] || ro[3] {
		t.Fatalf("read-only set = %v", ro)
	}
}

func TestComputeNodeCacheSmallSequentialHits(t *testing.T) {
	// 100-byte sequential reads: ~40 reads per 4 KB block, so a single
	// buffer yields a very high hit rate. This is the paper's
	// high-hit-rate job clump.
	var events []trace.Event
	for off := int64(0); off < 40960; off += 100 {
		events = append(events, read(1, 0, 5, off, 100))
	}
	res := ComputeNodeCache(events, bs, 1)
	if len(res) != 1 {
		t.Fatalf("jobs = %d", len(res))
	}
	if r := res[0].Rate(); r < 0.9 {
		t.Fatalf("sequential small reads hit rate = %v", r)
	}
}

func TestComputeNodeCacheLargeStrideMisses(t *testing.T) {
	// Interleaved reads with a stride larger than a block never hit:
	// the paper's 0%-hit-rate clump.
	var events []trace.Event
	for i := int64(0); i < 100; i++ {
		events = append(events, read(2, 0, 5, i*12800, 100))
	}
	res := ComputeNodeCache(events, bs, 1)
	if res[0].Hits != 0 {
		t.Fatalf("strided reads got %d hits", res[0].Hits)
	}
}

func TestComputeNodeCacheIgnoresWrittenFiles(t *testing.T) {
	events := []trace.Event{
		write(1, 0, 7, 0, 100),
		read(1, 0, 7, 0, 100),
		read(1, 0, 7, 0, 100), // would hit, but file is read-write
	}
	res := ComputeNodeCache(events, bs, 1)
	if len(res) != 0 {
		t.Fatalf("read-write file simulated: %+v", res)
	}
}

func TestComputeNodeCachePerNodeIsolation(t *testing.T) {
	// Two nodes read the same block; each node's first read must miss
	// (caches are per node, not shared).
	events := []trace.Event{
		read(1, 0, 5, 0, 100),
		read(1, 1, 5, 0, 100),
		read(1, 0, 5, 100, 100),
		read(1, 1, 5, 100, 100),
	}
	res := ComputeNodeCache(events, bs, 1)
	if res[0].Accesses != 4 || res[0].Hits != 2 {
		t.Fatalf("accesses=%d hits=%d, want 4/2", res[0].Accesses, res[0].Hits)
	}
}

func TestComputeNodeCacheMultiFileNeedsMoreBuffers(t *testing.T) {
	// Alternating reads from two files: one buffer thrashes, two
	// buffers capture both streams (the paper's "a single buffer per
	// file would have been appropriate").
	var events []trace.Event
	for i := int64(0); i < 40; i++ {
		events = append(events, read(1, 0, 1, i*100, 100))
		events = append(events, read(1, 0, 2, i*100, 100))
	}
	one := ComputeNodeCache(events, bs, 1)[0].Rate()
	two := ComputeNodeCache(events, bs, 2)[0].Rate()
	if one >= two {
		t.Fatalf("1 buffer %v should underperform 2 buffers %v", one, two)
	}
	if two < 0.9 {
		t.Fatalf("2-buffer rate = %v", two)
	}
}

func TestComputeNodeCacheMultiBlockRequestNeedsAllBlocks(t *testing.T) {
	events := []trace.Event{
		read(1, 0, 5, 0, 100),     // loads block 0
		read(1, 0, 5, 0, 2*4096),  // spans blocks 0-1: block 1 missing -> miss
		read(1, 0, 5, 4096, 4096), // block 1 now resident (2 buffers) -> hit
	}
	res := ComputeNodeCache(events, bs, 2)
	if res[0].Hits != 1 {
		t.Fatalf("hits = %d, want 1", res[0].Hits)
	}
}

func TestComputeNodeCachePanicsOnBadConfig(t *testing.T) {
	for _, f := range []func(){
		func() { ComputeNodeCache(nil, 0, 1) },
		func() { ComputeNodeCache(nil, bs, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad config did not panic")
				}
			}()
			f()
		}()
	}
}

func TestIONodeCacheInterprocessLocality(t *testing.T) {
	// 8 nodes read the same file's blocks one after another: the first
	// touch of each block misses, the other 7 hit. Hit rate -> 7/8.
	var events []trace.Event
	for blk := int64(0); blk < 50; blk++ {
		for node := uint16(0); node < 8; node++ {
			events = append(events, read(1, node, 9, blk*4096, 4096))
		}
	}
	res := IONodeCache(events, bs, 10, 1000, LRU)
	if r := res.Rate(); r < 0.85 || r > 0.88 {
		t.Fatalf("hit rate = %v, want ~0.875", r)
	}
}

func TestIONodeCacheLRUNeedsFewerBuffersThanFIFO(t *testing.T) {
	// A workload with a hot set revisited among cold streams: LRU
	// should reach a given hit rate with fewer buffers than FIFO,
	// Figure 9's key comparison.
	var events []trace.Event
	cold := int64(10000)
	for round := 0; round < 400; round++ {
		for hot := int64(0); hot < 20; hot++ {
			events = append(events, read(1, 0, 3, hot*4096, 4096))
		}
		for i := 0; i < 30; i++ {
			events = append(events, read(1, 0, 3, cold*4096, 4096))
			cold++
		}
	}
	lru := IONodeCache(events, bs, 10, 100, LRU).Rate()
	fifo := IONodeCache(events, bs, 10, 100, FIFO).Rate()
	if lru <= fifo {
		t.Fatalf("LRU %v should beat FIFO %v at equal size", lru, fifo)
	}
}

func TestIONodeCacheHitRateGrowsWithSize(t *testing.T) {
	var events []trace.Event
	for round := 0; round < 5; round++ {
		for blk := int64(0); blk < 500; blk++ {
			events = append(events, read(1, 0, 3, blk*4096, 4096))
		}
	}
	small := IONodeCache(events, bs, 10, 50, LRU).Rate()
	large := IONodeCache(events, bs, 10, 5000, LRU).Rate()
	if large <= small {
		t.Fatalf("hit rate did not grow with cache size: %v vs %v", small, large)
	}
	if large < 0.75 {
		t.Fatalf("cache bigger than working set should approach 4/5 rate, got %v", large)
	}
}

func TestIONodeCacheCountsWrites(t *testing.T) {
	events := []trace.Event{
		write(1, 0, 5, 0, 4096),
		read(1, 0, 5, 0, 4096), // written block is cached
	}
	res := IONodeCache(events, bs, 1, 10, LRU)
	if res.Accesses != 2 || res.Hits != 1 {
		t.Fatalf("accesses=%d hits=%d", res.Accesses, res.Hits)
	}
}

func TestIONodeCachePolicyNames(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" {
		t.Fatal("policy names wrong")
	}
}

func TestIONodeCacheBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	IONodeCache(nil, bs, 10, 5, LRU) // fewer buffers than nodes
}

func TestCombinedFiltersIntraprocessLocality(t *testing.T) {
	// Two access patterns:
	//  - node 0 re-reads one block many times (intraprocess locality:
	//    absorbed by its single buffer);
	//  - nodes 1..4 read a shared file interleaved at block stride
	//    (interprocess locality: only the I/O cache can capture it).
	var events []trace.Event
	for i := 0; i < 100; i++ {
		events = append(events, read(1, 0, 1, 0, 100))
	}
	for blk := int64(0); blk < 100; blk++ {
		for node := uint16(1); node <= 4; node++ {
			events = append(events, read(2, node, 2, blk*4096, 1024))
		}
	}
	res := Combined(events, bs, 10, 50)
	if res.ComputeHits < 95 {
		t.Fatalf("compute-node layer absorbed only %d hits", res.ComputeHits)
	}
	alone, filtered := res.IONodeAlone.Rate(), res.IONodeFiltered.Rate()
	// The interprocess hits must survive filtering: the drop in
	// I/O-node hit rate should be small (the paper saw ~3%).
	if filtered < alone-0.15 {
		t.Fatalf("filtering cut I/O hit rate too much: %v -> %v", alone, filtered)
	}
	if filtered < 0.5 {
		t.Fatalf("interprocess locality lost: filtered rate %v", filtered)
	}
}

// TestCombinedComputeLayerLoadsEveryBlock: a compute-node miss still
// touches every block of the request, so the one-buffer layer ends up
// holding the request's last block, and a read of that block alone is
// absorbed.
func TestCombinedComputeLayerLoadsEveryBlock(t *testing.T) {
	events := []trace.Event{
		read(1, 0, 1, 0, 2*bs), // blocks 0 and 1: a miss
		read(1, 0, 1, bs, 100), // block 1 again
	}
	res := Combined(events, bs, 2, 4)
	if res.ComputeHits != 1 {
		t.Fatalf("compute-node hits = %d, want 1", res.ComputeHits)
	}
	if res.IONodeFiltered.Accesses != 2 {
		t.Fatalf("filtered I/O-node accesses = %d, want 2", res.IONodeFiltered.Accesses)
	}
}

// Property: hits never exceed accesses and rates stay in [0,1] for
// arbitrary request streams.
func TestQuickCacheSimBounds(t *testing.T) {
	f := func(ops []uint32) bool {
		var events []trace.Event
		for _, op := range ops {
			ev := read(uint32(op%3), uint16(op%5), uint64(op%4), int64(op%100)*512, int64(op%9000))
			if op%7 == 0 {
				ev.Type = trace.EvWrite
			}
			events = append(events, ev)
		}
		for _, buffers := range []int{1, 10} {
			for _, jh := range ComputeNodeCache(events, bs, buffers) {
				if jh.Hits > jh.Accesses || jh.Rate() < 0 || jh.Rate() > 1 {
					return false
				}
			}
		}
		res := IONodeCache(events, bs, 10, 100, LRU)
		return res.Hits <= res.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a bigger compute-node cache never lowers a job's hit count.
func TestQuickMonotoneInBuffers(t *testing.T) {
	f := func(ops []uint16) bool {
		var events []trace.Event
		for _, op := range ops {
			events = append(events, read(1, uint16(op%2), uint64(op%3), int64(op)*256, 512))
		}
		small := ComputeNodeCache(events, bs, 1)
		big := ComputeNodeCache(events, bs, 50)
		for i := range small {
			if big[i].Hits < small[i].Hits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStridedEventsInIONodeCache(t *testing.T) {
	// A strided read touching blocks 0,2,4,... then a re-read: the
	// second pass must hit every block the first pass loaded.
	ev := trace.Event{
		Type: trace.EvReadStrided, Job: 1, Node: 0, File: 1,
		Offset: 0, Size: 1024, Stride: 8192, Count: 10,
	}
	events := []trace.Event{ev, ev}
	res := IONodeCache(events, bs, 10, 100, LRU)
	if res.Accesses != 20 || res.Hits != 10 {
		t.Fatalf("accesses=%d hits=%d, want 20/10", res.Accesses, res.Hits)
	}
}

func TestStridedEventsInComputeNodeCache(t *testing.T) {
	// A strided pattern never fits in one buffer, so it always misses
	// the compute-node cache (the batching happens below it instead).
	ev := trace.Event{
		Type: trace.EvReadStrided, Job: 1, Node: 0, File: 1,
		Offset: 0, Size: 1024, Stride: 8192, Count: 10,
	}
	res := ComputeNodeCache([]trace.Event{ev, ev}, bs, 1)
	if len(res) != 1 || res[0].Hits != 0 {
		t.Fatalf("res = %+v", res)
	}
	// With enough buffers the identical second pattern hits.
	res = ComputeNodeCache([]trace.Event{ev, ev}, bs, 50)
	if res[0].Hits != 1 {
		t.Fatalf("hits = %d, want 1", res[0].Hits)
	}
}
