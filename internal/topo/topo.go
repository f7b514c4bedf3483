// Package topo models the simulated machine's interconnect, so the same
// CFS stack, fault injector, and analytical twin run on the iPSC/860's
// hypercube, a k-ary 2D mesh, or a modern two-level fat tree without
// knowing which.
//
// Every topology shares the latency decomposition the hypercube
// established: a per-message software cost (startup plus per-packet
// handling), a per-hop link cost, and a bandwidth transfer cost. What
// varies is the hop count between two nodes and, for the fat tree,
// which bandwidth tier the transfer pays. Topologies group their links
// into named *classes* (hypercube dimensions, mesh axes, fat-tree
// levels) so fault injection can degrade "all x-axis links" on any
// topology the way it degrades "all dimension-3 links" on the cube.
//
// One Network type models all three. The topology names are a fixed
// table (Names), which a machine preset or a scenario's machines axis
// resolves a name through (Resolve).
package topo

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/sim"
)

// Config holds the parameters of an interconnect, whatever its
// topology. It is a pure value type (the run store renders machine
// configurations with fmt's %+v).
type Config struct {
	// Kind names the topology (see Names); "" means "hypercube", the
	// machine this reproduction started from.
	Kind string
	// Dim is the hypercube dimension (2^Dim nodes). Other topologies
	// take their shape from the machine's node count and ignore it.
	Dim            int
	Startup        sim.Time // per-message software latency
	PerHop         sim.Time // additional latency per hop traversed
	PerPacket      sim.Time // per-packet handling overhead
	PacketBytes    int      // packetization unit (4096 on the iPSC)
	BytesPerSecond float64  // link bandwidth
	// SpineBytesPerSecond is the fat tree's spine-level bandwidth: a
	// spine-crossing transfer pays the slower of it and
	// BytesPerSecond. Zero means the spine matches the edge links.
	// Other topologies ignore it.
	SpineBytesPerSecond float64
}

// IPSC860 returns the interconnect parameters of the iPSC/860:
// roughly 75 us message startup, ~10 us per hop, 4 KB packets and
// 2.8 MB/s links, consistent with published measurements of the
// machine.
func IPSC860() Config {
	return Config{
		Dim:            7,
		Startup:        75 * sim.Microsecond,
		PerHop:         10 * sim.Microsecond,
		PerPacket:      15 * sim.Microsecond,
		PacketBytes:    4096,
		BytesPerSecond: 2.8e6,
	}
}

// Degrader adjusts message latencies (see internal/faults). A nil
// Degrader means healthy. A degraded network calls HopCost once per
// link class a message crosses, in ascending class order, then Message
// exactly once per message, so degradation statistics and the jitter
// stream are consumed in a deterministic order.
type Degrader interface {
	// HopCost returns the possibly degraded cost of hops traversals
	// of links in the given class; perHop is the healthy per-hop unit.
	HopCost(class, hops int, perHop sim.Time) sim.Time
	// Message finishes one message: base is the software cost plus
	// every hop cost, transfer the healthy bandwidth cost. The
	// implementation may inflate either and add jitter.
	Message(base, transfer sim.Time) sim.Time
}

// The topology kinds, numbered in the sorted order Names reports.
const (
	// A two-level folded Clos: nodes hang off edge switches in pods of
	// fattreePod, and every edge switch uplinks to a spine layer. Hop
	// count is distance-independent -- 2 within a pod (up to the edge
	// switch and down), 4 across pods (edge, spine, edge) -- which is
	// the property that separates a modern cluster fabric from the
	// hypercube's distance-sensitive routing. A spine crossing pays the
	// slower of the edge and spine bandwidth tiers. Link classes: 0 =
	// edge links (node to edge switch), 1 = spine links (edge switch to
	// spine).
	fattree = iota
	// The iPSC/860 interconnect: a Dim-dimensional binary cube with
	// e-cube (dimension-ordered) routing, so a message crosses one link
	// per address bit in which its endpoints differ, lowest dimension
	// first, which is deadlock-free on a hypercube. Link classes: class
	// d = the cube links along dimension d.
	hypercube
	// A k-ary 2D mesh (no wraparound links) with dimension-ordered XY
	// routing: a message travels its full x distance, then its full y
	// distance, which is deadlock-free on a mesh. Node id = y*width +
	// x, row-major. The grid is the squarest power-of-two factorization
	// of the node count (128 nodes -> 16x8), so hop distances are what
	// a machine-room mesh of that size would show. Link classes: 0 =
	// x-axis links, 1 = y-axis links.
	mesh
)

// kinds names each topology kind.
var kinds = [...]string{fattree: "fattree", hypercube: "hypercube", mesh: "mesh"}

// fattreePod is the number of nodes under one edge switch. Machines
// smaller than a pod collapse to a single switch.
const fattreePod = 16

// Names returns the topology names in sorted order.
func Names() []string { return append([]string(nil), kinds[:]...) }

// Resolve normalizes a topology name (case-insensitive, "" means
// "hypercube") and reports whether it is known.
func Resolve(name string) (string, error) {
	kind, err := kindOf(name)
	if err != nil {
		return "", err
	}
	return kinds[kind], nil
}

func kindOf(name string) (int, error) {
	key := strings.ToLower(name)
	if key == "" {
		key = "hypercube"
	}
	for kind, known := range kinds {
		if key == known {
			return kind, nil
		}
	}
	return 0, fmt.Errorf("topo: unknown topology %q (known: %s)",
		name, strings.Join(kinds[:], ", "))
}

// mustKind resolves cfg's topology, panicking on an unknown name:
// callers validate names through Resolve at configuration time.
func mustKind(cfg Config) int {
	kind, err := kindOf(cfg.Kind)
	if err != nil {
		panic(err.Error())
	}
	return kind
}

// LinkClasses reports the link-class count of the topology cfg
// describes, without building a network (fault validation needs it
// before any kernel exists).
func LinkClasses(cfg Config) int { return linkClasses(mustKind(cfg), cfg) }

func linkClasses(kind int, cfg Config) int {
	if kind == hypercube {
		return cfg.Dim // one class per dimension
	}
	return 2 // mesh axes, fat-tree levels
}

// Network is a machine's interconnect: node-to-node latency and
// delivery, peripheral attachments, a degradation hook, and traffic
// counters. Link contention is not modeled: the workload
// characteristics under study are dominated by software overhead, disk
// service, and cache behaviour, not by link queueing.
type Network struct {
	k     *sim.Kernel
	cfg   Config
	nodes int
	kind  int
	row   uint    // log2 of the mesh's row length
	spine float64 // fat tree's effective spine bandwidth
	deg   Degrader

	delivered int64
	bytesSent int64
}

// New builds the interconnect cfg describes for a machine with the
// given compute-node count. It panics on an unknown kind and on
// configurations that cannot describe the machine, as hardware model
// constructors do throughout.
func New(k *sim.Kernel, nodes int, cfg Config) *Network {
	n := &Network{k: k, cfg: cfg, nodes: nodes, kind: mustKind(cfg)}
	name := kinds[n.kind]
	if n.kind == hypercube && (cfg.Dim < 0 || cfg.Dim > 16) {
		panic(fmt.Sprintf("hypercube: unreasonable dimension %d", cfg.Dim))
	}
	if cfg.PacketBytes <= 0 {
		panic(name + ": packet size must be positive")
	}
	if cfg.BytesPerSecond <= 0 {
		panic(name + ": bandwidth must be positive")
	}
	switch n.kind {
	case hypercube:
		if nodes != 1<<cfg.Dim {
			panic(fmt.Sprintf("hypercube: dimension %d (%d nodes) disagrees with node count %d",
				cfg.Dim, 1<<cfg.Dim, nodes))
		}
	case mesh:
		if nodes <= 0 || nodes&(nodes-1) != 0 {
			panic(fmt.Sprintf("mesh: node count %d not a positive power of two", nodes))
		}
		n.row = uint(bits.TrailingZeros(uint(nodes))+1) / 2
	case fattree:
		if nodes <= 0 {
			panic(fmt.Sprintf("fattree: node count %d not positive", nodes))
		}
		n.spine = cfg.SpineBytesPerSecond
		if n.spine == 0 {
			n.spine = cfg.BytesPerSecond
		}
		if n.spine < 0 {
			panic("fattree: spine bandwidth must be non-negative")
		}
		if n.spine > cfg.BytesPerSecond {
			// The transfer pays the path's slowest tier; a faster
			// spine never shows.
			n.spine = cfg.BytesPerSecond
		}
	}
	return n
}

// Nodes returns the number of compute nodes.
func (n *Network) Nodes() int { return n.nodes }

// SetDegrader installs a latency degrader (see internal/faults). Call
// it before the simulation starts.
func (n *Network) SetDegrader(d Degrader) { n.deg = d }

// Delivered and BytesSent report traffic counters.
func (n *Network) Delivered() int64 { return n.delivered }
func (n *Network) BytesSent() int64 { return n.bytesSent }

// LinkClasses returns the number of link classes the topology exposes
// for fault injection: the cube's dimensions, the mesh's x and y axes,
// or the fat tree's edge and spine levels.
func (n *Network) LinkClasses() int { return linkClasses(n.kind, n.cfg) }

// Latency returns the modeled delivery time for a bytes-sized message
// between compute nodes src and dst.
func (n *Network) Latency(src, dst, bytes int) sim.Time {
	n.validate(src)
	n.validate(dst)
	return n.latency(src, dst, 0, bytes)
}

// Send schedules deliver to run after Latency(src, dst, bytes).
func (n *Network) Send(src, dst, bytes int, deliver func()) {
	n.ship(n.Latency(src, dst, bytes), bytes, deliver)
}

// Attach returns a peripheral (I/O or service node) hanging one
// dedicated link off the given host compute node.
func (n *Network) Attach(host int) Attachment {
	n.validate(host)
	return Attachment{n: n, host: host}
}

// validate panics if id is not a compute-node address.
func (n *Network) validate(id int) {
	if id < 0 || id >= n.nodes {
		panic(fmt.Sprintf("topo: node %d out of range [0,%d)", id, n.nodes))
	}
}

// latency models one message from src to dst with extra peripheral-link
// hops: the software cost, PerHop for every link the route and the
// peripheral hops cross, and the transfer at the route's bandwidth.
// A route from a node to itself crosses no link. A degraded network
// prices the message through degraded instead.
func (n *Network) latency(src, dst, extra, bytes int) sim.Time {
	software := n.software(bytes)
	if n.deg != nil {
		return n.degraded(src, dst, extra, bytes, software)
	}
	hops, bw := 0, n.cfg.BytesPerSecond
	switch n.kind {
	case hypercube:
		hops = bits.OnesCount32(uint32(src) ^ uint32(dst))
	case mesh:
		dx, dy := n.axes(src, dst)
		hops = dx + dy
	case fattree:
		if src != dst {
			hops = 2
		}
		if src/fattreePod != dst/fattreePod {
			hops, bw = 4, n.spine
		}
	}
	return software + sim.Time(hops+extra)*n.cfg.PerHop + transferAt(bytes, bw)
}

// degraded prices one message on a degraded network. The peripheral
// hops are class-less and pay PerHop; the route pays Degrader.HopCost
// once per link class it crosses, in ascending class order: each
// crossed dimension on the cube, the x then the y links on the mesh,
// the edge then the spine links on the fat tree. Message then finishes
// the message with the healthy transfer cost.
func (n *Network) degraded(src, dst, extra, bytes int, software sim.Time) sim.Time {
	perHop, bw := n.cfg.PerHop, n.cfg.BytesPerSecond
	t := software + sim.Time(extra)*perHop
	switch n.kind {
	case hypercube:
		for mask := uint32(src) ^ uint32(dst); mask != 0; mask &= mask - 1 {
			t += n.deg.HopCost(bits.TrailingZeros32(mask), 1, perHop)
		}
	case mesh:
		dx, dy := n.axes(src, dst)
		if dx > 0 {
			t += n.deg.HopCost(0, dx, perHop)
		}
		if dy > 0 {
			t += n.deg.HopCost(1, dy, perHop)
		}
	case fattree:
		if src != dst {
			t += n.deg.HopCost(0, 2, perHop)
		}
		if src/fattreePod != dst/fattreePod {
			t += n.deg.HopCost(1, 2, perHop)
			bw = n.spine
		}
	}
	return n.deg.Message(t, transferAt(bytes, bw))
}

// software returns the per-message software cost: startup plus
// per-packet handling, with even empty messages occupying one packet.
func (n *Network) software(bytes int) sim.Time {
	if bytes < 0 {
		panic("topo: negative message size")
	}
	packets := (bytes + n.cfg.PacketBytes - 1) / n.cfg.PacketBytes
	if packets == 0 {
		packets = 1
	}
	return n.cfg.Startup + sim.Time(packets)*n.cfg.PerPacket
}

// transferAt returns the bandwidth cost of bytes at the given rate.
func transferAt(bytes int, bytesPerSecond float64) sim.Time {
	return sim.Time(float64(bytes) / bytesPerSecond * float64(sim.Second))
}

// axes returns the x and y distances between two mesh nodes. A row is
// a power of two long, so a node's coordinates are its id's low and
// high bits.
func (n *Network) axes(src, dst int) (dx, dy int) {
	mask := 1<<n.row - 1
	dx = src&mask - dst&mask
	if dx < 0 {
		dx = -dx
	}
	dy = src>>n.row - dst>>n.row
	if dy < 0 {
		dy = -dy
	}
	return dx, dy
}

// ship accounts for and schedules one message delivery.
func (n *Network) ship(lat sim.Time, bytes int, deliver func()) {
	n.bytesSent += int64(bytes)
	n.k.After(lat, func() {
		n.delivered++
		deliver()
	})
}

// Attachment is a peripheral node (I/O node or service node) attached
// to one compute node by a dedicated link, as on the iPSC/860, where
// I/O and service nodes hang off a compute node rather than sitting on
// the cube.
type Attachment struct {
	n    *Network
	host int
}

// Host returns the compute node the peripheral is attached to.
func (a Attachment) Host() int { return a.host }

// LatencyFrom returns the latency of a message from compute node src
// to this peripheral: the network path to the host plus one peripheral
// hop.
func (a Attachment) LatencyFrom(src, bytes int) sim.Time {
	a.n.validate(src)
	return a.n.latency(src, a.host, 1, bytes)
}

// SendTo schedules delivery of a message from compute node src to the
// peripheral; SendFrom the reverse (same path, same cost).
func (a Attachment) SendTo(src, bytes int, deliver func()) {
	a.n.ship(a.LatencyFrom(src, bytes), bytes, deliver)
}

func (a Attachment) SendFrom(dst, bytes int, deliver func()) { a.SendTo(dst, bytes, deliver) }
