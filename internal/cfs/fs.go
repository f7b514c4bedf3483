package cfs

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Transport models the interconnect between compute nodes and I/O
// nodes. The machine package implements it over the hypercube; tests
// use a constant-latency stub.
type Transport interface {
	// ToIONode returns the latency of a request message of the given
	// size from a compute node to an I/O node.
	ToIONode(computeNode, ioNode, bytes int) sim.Time
	// FromIONode returns the latency of the response back.
	FromIONode(ioNode, computeNode, bytes int) sim.Time
}

// Tracer receives a CHARISMA event record for every CFS call. The
// machine wires it to a per-node trace buffer; untraced jobs use
// NopTracer, reproducing the paper's partially-instrumented workload.
type Tracer interface {
	Record(ev trace.Event)
}

// NopTracer discards all events.
type NopTracer struct{}

// Record implements Tracer.
func (NopTracer) Record(trace.Event) {}

// Config sizes the file system.
type Config struct {
	BlockBytes int // striping unit, 4096 on CFS
	IONodes    int
	IONode     IONodeConfig
}

// DefaultConfig returns the NAS configuration: 10 I/O nodes, 4 KB
// striping.
func DefaultConfig() Config {
	return Config{BlockBytes: 4096, IONodes: 10, IONode: DefaultIONodeConfig()}
}

// file is the metadata for one CFS file.
type file struct {
	id      uint64
	name    string
	size    int64
	deleted bool
	opens   int // live handles

	// blocks maps file-block index to physical disk block; file block
	// b lives on I/O node (b mod IONodes). Unwritten blocks are absent.
	blocks blockTable

	// groups holds shared-pointer state per (job, mode>0) open group.
	groups map[uint32]*openGroup

	createdByJob uint32
}

// denseBlockLimit bounds the paged block table: file blocks below it
// (1 GB of 4 KB blocks, covering every file the study volume can hold)
// live in pages; sparse indices above it fall back to a map. A write
// just below the limit adds one page and a directory of 4096 page
// pointers (32 KB); beyond the limit cost reverts to map entries.
const denseBlockLimit = 1 << 18

// pageShift sizes a block-table page: 1<<pageShift file blocks.
const pageShift = 6

// blockPage holds the disk blocks of 64 consecutive file blocks, -1
// where a block is unallocated.
type blockPage [1 << pageShift]int32

// blockTable maps file-block index to physical disk block. Files are
// overwhelmingly written sequentially from offset zero, so the common
// case is dense -- far cheaper than the map the transfer hot path
// would otherwise hit for every block. Pages are added as the file
// reaches them (a nil page is a hole) and never move, so growing a
// table copies no entry. A disk block fits in 32 bits: New refuses a
// larger drive.
type blockTable struct {
	pages  []*blockPage
	sparse map[int64]int32
}

// get returns the disk block for file block b, if allocated.
func (t *blockTable) get(b int64) (int32, bool) {
	if i := b >> pageShift; i < int64(len(t.pages)) {
		if p := t.pages[i]; p != nil {
			db := p[b&(1<<pageShift-1)]
			return db, db >= 0
		}
		return 0, false
	}
	if t.sparse != nil {
		db, ok := t.sparse[b]
		return db, ok
	}
	return 0, false
}

// set records the disk block for file block b.
func (t *blockTable) set(b int64, db int32) {
	if b < denseBlockLimit {
		i := int(b >> pageShift)
		if i >= len(t.pages) {
			t.pages = append(t.pages, make([]*blockPage, i+1-len(t.pages))...)
		}
		p := t.pages[i]
		if p == nil {
			p = new(blockPage)
			for j := range p {
				p[j] = -1
			}
			t.pages[i] = p
		}
		p[b&(1<<pageShift-1)] = db
		return
	}
	if t.sparse == nil {
		t.sparse = make(map[int64]int32)
	}
	t.sparse[b] = db
}

// each visits allocated blocks in increasing file-block order.
func (t *blockTable) each(fn func(fileBlock int64, diskBlock int32)) {
	for i, p := range t.pages {
		if p == nil {
			continue
		}
		for j, db := range p {
			if db >= 0 {
				fn(int64(i)<<pageShift+int64(j), db)
			}
		}
	}
	if len(t.sparse) > 0 {
		keys := make([]int64, 0, len(t.sparse))
		for b := range t.sparse {
			keys = append(keys, b)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, b := range keys {
			fn(b, t.sparse[b])
		}
	}
}

// openGroup is the shared file pointer state for modes 1-3.
type openGroup struct {
	mode    IOMode
	pointer int64
	members []int // node ids, sorted; round-robin order for modes 2/3
	turn    int   // index into members (modes 2/3)
	reqSize int64 // fixed request size (mode 3), 0 until first access
	waiters []*sim.Proc
}

func (g *openGroup) wakeAll() {
	ws := g.waiters
	g.waiters = nil
	for _, w := range ws {
		w.Wake()
	}
}

// FileSystem is the CFS volume: metadata plus the I/O nodes.
type FileSystem struct {
	k       *sim.Kernel
	cfg     Config
	tp      Transport
	ionodes []*IONode
	arena   *Arena  // the file system's own pools, or a cross-study arena
	xfers   []*xfer // free transfer records, reused LIFO

	byName map[string]*file
	byID   map[uint64]*file
	nextID uint64

	opens      int64
	modeCounts [4]int64
}

// New returns an empty file system. It panics on an invalid
// configuration, including a drive of more than math.MaxInt32 blocks
// (see NewIONode).
func New(k *sim.Kernel, cfg Config, tp Transport) *FileSystem {
	if cfg.BlockBytes <= 0 || cfg.IONodes <= 0 {
		panic("cfs: invalid configuration")
	}
	fs := &FileSystem{
		k:      k,
		cfg:    cfg,
		tp:     tp,
		arena:  new(Arena),
		byName: make(map[string]*file),
		byID:   make(map[uint64]*file),
	}
	for i := 0; i < cfg.IONodes; i++ {
		fs.ionodes = append(fs.ionodes, NewIONode(k, i, cfg.IONode))
	}
	return fs
}

// SetArena makes the file system draw files, handles and open groups
// from the given cross-study pool instead of its own, which serves
// one study. Call it right after New, before any file is created.
func (fs *FileSystem) SetArena(a *Arena) { fs.arena = a }

// Recycle returns every file struct, with its open groups, and every
// free transfer record to the arena. Call it once the simulation is
// over and the trace collected; the file system must not be used
// afterwards.
func (fs *FileSystem) Recycle() {
	for id, f := range fs.byID {
		fs.arena.putFile(f)
		delete(fs.byID, id)
	}
	clear(fs.byName)
	fs.arena.putXfers(fs.xfers)
	fs.xfers = nil
}

// Config returns the file-system configuration.
func (fs *FileSystem) Config() Config { return fs.cfg }

// IONode returns I/O node i, for instrumentation.
func (fs *FileSystem) IONode(i int) *IONode { return fs.ionodes[i] }

// Opens reports the total number of successful opens.
func (fs *FileSystem) Opens() int64 { return fs.opens }

// ModeCount reports how many opens used the given I/O mode.
func (fs *FileSystem) ModeCount(m IOMode) int64 { return fs.modeCounts[m] }

// TotalDiskOps reports read+write operations summed over all disks.
func (fs *FileSystem) TotalDiskOps() int64 {
	var n int64
	for _, io := range fs.ionodes {
		n += io.Disk().Reads() + io.Disk().Writes()
	}
	return n
}

// ioNodeFor returns the I/O node storing the given file block, per
// CFS's round-robin striping.
func (fs *FileSystem) ioNodeFor(fileBlock int64) *IONode {
	return fs.ionodes[int(fileBlock%int64(fs.cfg.IONodes))]
}

// lookup returns the live file with the given name.
func (fs *FileSystem) lookup(name string) (*file, bool) {
	f, ok := fs.byName[name]
	return f, ok
}

// create registers a new file.
func (fs *FileSystem) create(name string, job uint32) *file {
	fs.nextID++
	f := fs.arena.getFile()
	if f == nil {
		f = &file{groups: make(map[uint32]*openGroup)}
	}
	f.id = fs.nextID
	f.name = name
	f.createdByJob = job
	fs.byName[name] = f
	fs.byID[f.id] = f
	return f
}

// Preload creates a file of the given size with all blocks allocated,
// modeling input data sets that existed before tracing started. It is
// not traced and consumes no simulated time.
func (fs *FileSystem) Preload(name string, size int64) (uint64, error) {
	if _, exists := fs.byName[name]; exists {
		return 0, ErrExists
	}
	if size < 0 {
		return 0, ErrBadRequest
	}
	// Check every I/O node's share of the stripe before touching
	// anything, so a preload that does not fit changes nothing.
	nBlocks := (size + int64(fs.cfg.BlockBytes) - 1) / int64(fs.cfg.BlockBytes)
	nio := int64(fs.cfg.IONodes)
	for i, io := range fs.ionodes {
		need := nBlocks / nio
		if int64(i) < nBlocks%nio {
			need++
		}
		if io.freeBlocks() < need {
			return 0, ErrNoSpace
		}
	}
	f := fs.create(name, 0)
	f.size = size
	for b := int64(0); b < nBlocks; b++ {
		db, _ := fs.ioNodeFor(b).allocBlock() // cannot fail: checked above
		f.blocks.set(b, db)
	}
	return f.id, nil
}

// Exists reports whether a live file has the given name.
func (fs *FileSystem) Exists(name string) bool {
	_, ok := fs.byName[name]
	return ok
}

// Size returns the current size of the named file.
func (fs *FileSystem) Size(name string) (int64, error) {
	f, ok := fs.lookup(name)
	if !ok {
		return 0, ErrNotFound
	}
	return f.size, nil
}

// removeFile unlinks the file from the namespace, invalidates its
// cached blocks, and returns its disk blocks to the allocators.
func (fs *FileSystem) removeFile(f *file) {
	f.deleted = true
	delete(fs.byName, f.name)
	// Blocks are visited in increasing file-block order so the free
	// lists (and hence future allocations and disk layout) stay
	// deterministic.
	f.blocks.each(func(fb int64, db int32) {
		io := fs.ioNodeFor(fb)
		io.freeBlock(db)
		io.invalidate(f.id, []int64{fb})
	})
	// Handles still open on the file observe ErrDeleted before ever
	// touching blocks, so its table can go.
	f.blocks = blockTable{}
}

func (fs *FileSystem) String() string {
	return fmt.Sprintf("cfs: %d I/O nodes, %d B blocks, %d files",
		fs.cfg.IONodes, fs.cfg.BlockBytes, len(fs.byID))
}
