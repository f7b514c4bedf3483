package topo

// This file keeps the interconnect as it was before one Network type
// replaced the per-topology models: a mutex-guarded registry of
// factories behind the Interconnect interface, and hypercube, mesh and
// fat-tree types that embed one base and share a peripheral attachment
// through the edgeNet interface. Only the names of types, functions
// and package variables differ (a ref prefix). TestNetworkMatchesReference
// drives every topology beside its old form and compares every result.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// refInterconnect is the surface the machine and its CFS transport use:
// node-to-node latency and delivery, peripheral attachments, a
// degradation hook, and traffic counters.
type refInterconnect interface {
	// Nodes returns the number of compute nodes.
	Nodes() int
	// Latency returns the modeled delivery time for a bytes-sized
	// message between compute nodes src and dst.
	Latency(src, dst, bytes int) sim.Time
	// Send schedules deliver to run after Latency(src, dst, bytes).
	Send(src, dst, bytes int, deliver func())
	// Attach returns a peripheral (I/O or service node) hanging one
	// dedicated link off the given host compute node.
	Attach(host int) refAttachment
	// SetDegrader installs a latency degrader (see internal/faults).
	// Call it before the simulation starts.
	SetDegrader(Degrader)
	// Delivered and BytesSent report traffic counters.
	Delivered() int64
	BytesSent() int64
	// LinkClasses returns the number of link classes the topology
	// exposes for fault injection; ClassName names one.
	LinkClasses() int
	ClassName(class int) string
}

// refAttachment is a peripheral node (I/O node or service node) attached
// to one compute node by a dedicated link, as on the iPSC/860.
type refAttachment interface {
	// Host returns the compute node the peripheral is attached to.
	Host() int
	// LatencyFrom returns the latency of a message from compute node
	// src to this peripheral: the network path to the host plus one
	// peripheral hop.
	LatencyFrom(src, bytes int) sim.Time
	// SendTo schedules delivery of a message from compute node src to
	// the peripheral; SendFrom the reverse (same path, same cost).
	SendTo(src, bytes int, deliver func())
	SendFrom(dst, bytes int, deliver func())
}

// refFactory builds an interconnect for a machine with the given compute
// node count. Factories panic on configurations that cannot describe
// the machine (as hardware model constructors do throughout);
// name resolution errors are caught earlier via refResolve.
type refFactory func(k *sim.Kernel, nodes int, cfg Config) refInterconnect

type refEntry struct {
	factory refFactory
	// classes reports the topology's link-class count for a
	// configuration without building a network.
	classes func(cfg Config) int
}

var (
	refRegMu    sync.RWMutex
	refRegistry = map[string]refEntry{}
)

// refRegister adds a topology model to the refRegistry. It panics on a
// duplicate or empty name; call it from init.
func refRegister(name string, classes func(Config) int, f refFactory) {
	refRegMu.Lock()
	defer refRegMu.Unlock()
	if name == "" || name != strings.ToLower(name) {
		panic(fmt.Sprintf("topo: register %q: names must be non-empty lowercase", name))
	}
	if _, dup := refRegistry[name]; dup {
		panic(fmt.Sprintf("topo: duplicate registration %q", name))
	}
	if classes == nil || f == nil {
		panic(fmt.Sprintf("topo: register %q: nil classes or factory", name))
	}
	refRegistry[name] = refEntry{factory: f, classes: classes}
}

// refNames returns the registered topology names in sorted order.
func refNames() []string {
	refRegMu.RLock()
	defer refRegMu.RUnlock()
	out := make([]string, 0, len(refRegistry))
	for name := range refRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// refResolve normalizes a topology name (case-insensitive, "" means
// "hypercube") and reports whether it is registered.
func refResolve(name string) (string, error) {
	kind := strings.ToLower(name)
	if kind == "" {
		kind = "hypercube"
	}
	refRegMu.RLock()
	_, ok := refRegistry[kind]
	refRegMu.RUnlock()
	if !ok {
		return "", fmt.Errorf("topo: unknown topology %q (known: %s)",
			name, strings.Join(refNames(), ", "))
	}
	return kind, nil
}

func refLookup(cfg Config) refEntry {
	kind, err := refResolve(cfg.Kind)
	if err != nil {
		panic(err.Error())
	}
	refRegMu.RLock()
	defer refRegMu.RUnlock()
	return refRegistry[kind]
}

// refNew builds the interconnect cfg describes for a machine with the
// given compute-node count. The kind must be registered: callers
// validate names through refResolve at configuration time.
func refNew(k *sim.Kernel, nodes int, cfg Config) refInterconnect {
	return refLookup(cfg).factory(k, nodes, cfg)
}

// refLinkClasses reports the link-class count of the topology cfg
// describes, without building a network (fault validation needs it
// before any kernel exists).
func refLinkClasses(cfg Config) int {
	return refLookup(cfg).classes(cfg)
}

// refBase carries the state and latency components every topology model
// here shares: the kernel, the configuration, the degradation hook,
// and the traffic counters. Concrete models embed it and supply the
// hop structure.
type refBase struct {
	k     *sim.Kernel
	cfg   Config
	nodes int
	deg   Degrader

	delivered int64
	bytesSent int64
}

func (b *refBase) Nodes() int             { return b.nodes }
func (b *refBase) Delivered() int64       { return b.delivered }
func (b *refBase) BytesSent() int64       { return b.bytesSent }
func (b *refBase) SetDegrader(d Degrader) { b.deg = d }

func refCheckCommon(name string, cfg Config) {
	if cfg.PacketBytes <= 0 {
		panic(name + ": packet size must be positive")
	}
	if cfg.BytesPerSecond <= 0 {
		panic(name + ": bandwidth must be positive")
	}
}

// validate panics if id is not a compute-node address.
func (b *refBase) validate(id int) {
	if id < 0 || id >= b.nodes {
		panic(fmt.Sprintf("topo: node %d out of range [0,%d)", id, b.nodes))
	}
}

// software returns the per-message software cost: startup plus
// per-packet handling, with even empty messages occupying one packet.
func (b *refBase) software(bytes int) sim.Time {
	if bytes < 0 {
		panic("topo: negative message size")
	}
	packets := (bytes + b.cfg.PacketBytes - 1) / b.cfg.PacketBytes
	if packets == 0 {
		packets = 1
	}
	return b.cfg.Startup + sim.Time(packets)*b.cfg.PerPacket
}

// refTransferAt returns the bandwidth cost of bytes at the given rate.
func refTransferAt(bytes int, bytesPerSecond float64) sim.Time {
	return sim.Time(float64(bytes) / bytesPerSecond * float64(sim.Second))
}

// ship accounts for and schedules one message delivery.
func (b *refBase) ship(lat sim.Time, bytes int, deliver func()) {
	b.bytesSent += int64(bytes)
	b.k.After(lat, func() {
		b.delivered++
		deliver()
	})
}

// refEdgeNet is the internal surface the shared peripheral attachment
// drives: a latency function that includes the peripheral hop, and
// delivery scheduling.
type refEdgeNet interface {
	latencyFrom(src, host, bytes int) sim.Time
	ship(lat sim.Time, bytes int, deliver func())
}

// refPeriph implements refAttachment for any refEdgeNet.
type refPeriph struct {
	n    refEdgeNet
	host int
}

func (p refPeriph) Host() int { return p.host }

func (p refPeriph) LatencyFrom(src, bytes int) sim.Time {
	return p.n.latencyFrom(src, p.host, bytes)
}

func (p refPeriph) SendTo(src, bytes int, deliver func()) {
	p.n.ship(p.n.latencyFrom(src, p.host, bytes), bytes, deliver)
}

// SendFrom is the reverse path, which costs the same.
func (p refPeriph) SendFrom(dst, bytes int, deliver func()) { p.SendTo(dst, bytes, deliver) }

func init() {
	refRegister("hypercube",
		func(cfg Config) int { return cfg.Dim }, // one class per dimension
		func(k *sim.Kernel, nodes int, cfg Config) refInterconnect {
			return newRefHypercube(k, nodes, cfg)
		})
}

// refHypercube is the iPSC/860 interconnect: a Dim-dimensional binary
// cube with e-cube (dimension-ordered) routing, so a message crosses
// one link per address bit in which its endpoints differ, lowest
// dimension first, which is deadlock-free on a hypercube. Peripheral
// nodes (I/O and service nodes) hang off a single compute node rather
// than sitting on the cube, exactly as on the NASA Ames machine. Link
// contention is not modeled: the workload characteristics under study
// are dominated by software overhead, disk service, and cache
// behaviour, not by link queueing.
//
// Link classes: class d = the cube links along dimension d.
type refHypercube struct{ refBase }

func newRefHypercube(k *sim.Kernel, nodes int, cfg Config) *refHypercube {
	if cfg.Dim < 0 || cfg.Dim > 16 {
		panic(fmt.Sprintf("hypercube: unreasonable dimension %d", cfg.Dim))
	}
	refCheckCommon("hypercube", cfg)
	if nodes != 1<<cfg.Dim {
		panic(fmt.Sprintf("hypercube: dimension %d (%d nodes) disagrees with node count %d",
			cfg.Dim, 1<<cfg.Dim, nodes))
	}
	return &refHypercube{refBase{k: k, cfg: cfg, nodes: nodes}}
}

func (h *refHypercube) LinkClasses() int { return h.cfg.Dim }

func (h *refHypercube) ClassName(class int) string { return fmt.Sprintf("dim%d", class) }

// latency models one message: software cost, one hop per differing
// address bit, and bandwidth transfer, with extraHops peripheral-link
// hops.
func (h *refHypercube) latency(src, dst, extraHops, bytes int) sim.Time {
	software := h.software(bytes)
	transfer := refTransferAt(bytes, h.cfg.BytesPerSecond)
	mask := uint32(src) ^ uint32(dst)
	if h.deg == nil {
		return software + sim.Time(bits.OnesCount32(mask)+extraHops)*h.cfg.PerHop + transfer
	}
	t := software + sim.Time(extraHops)*h.cfg.PerHop
	for ; mask != 0; mask &= mask - 1 {
		t += h.deg.HopCost(bits.TrailingZeros32(mask), 1, h.cfg.PerHop)
	}
	return h.deg.Message(t, transfer)
}

func (h *refHypercube) Latency(src, dst, bytes int) sim.Time {
	h.validate(src)
	h.validate(dst)
	return h.latency(src, dst, 0, bytes)
}

func (h *refHypercube) Send(src, dst, bytes int, deliver func()) {
	h.ship(h.Latency(src, dst, bytes), bytes, deliver)
}

func (h *refHypercube) latencyFrom(src, host, bytes int) sim.Time {
	h.validate(src)
	return h.latency(src, host, 1, bytes)
}

func (h *refHypercube) Attach(host int) refAttachment {
	h.validate(host)
	return refPeriph{n: h, host: host}
}

func init() {
	refRegister("mesh",
		func(Config) int { return 2 }, // x and y axes
		func(k *sim.Kernel, nodes int, cfg Config) refInterconnect {
			return newRefMesh(k, nodes, cfg)
		})
}

// refMesh is a k-ary 2D mesh (no wraparound links) with dimension-ordered
// XY routing: a message travels its full x distance, then its full y
// distance, which is deadlock-free on a mesh. Node id = y*width + x,
// row-major. The grid is the squarest power-of-two factorization of
// the node count (128 nodes -> 16x8), so hop distances are what a
// machine-room mesh of that size would show.
//
// Link classes: 0 = x-axis links, 1 = y-axis links.
type refMesh struct {
	refBase
	width, height int
}

func newRefMesh(k *sim.Kernel, nodes int, cfg Config) *refMesh {
	refCheckCommon("mesh", cfg)
	if nodes <= 0 || nodes&(nodes-1) != 0 {
		panic(fmt.Sprintf("mesh: node count %d not a positive power of two", nodes))
	}
	order := bits.TrailingZeros(uint(nodes))
	width := 1 << ((order + 1) / 2)
	return &refMesh{
		refBase: refBase{k: k, cfg: cfg, nodes: nodes},
		width:   width,
		height:  nodes / width,
	}
}

func (m *refMesh) LinkClasses() int { return 2 }

func (m *refMesh) ClassName(class int) string {
	if class == 0 {
		return "x"
	}
	return "y"
}

// latency models one message: software cost, XY route hop cost, and
// bandwidth transfer, with extraHops peripheral-link hops.
func (m *refMesh) latency(src, dst, extraHops, bytes int) sim.Time {
	software := m.software(bytes)
	transfer := refTransferAt(bytes, m.cfg.BytesPerSecond)
	dx := src%m.width - dst%m.width
	if dx < 0 {
		dx = -dx
	}
	dy := src/m.width - dst/m.width
	if dy < 0 {
		dy = -dy
	}
	if m.deg == nil {
		return software + sim.Time(dx+dy+extraHops)*m.cfg.PerHop + transfer
	}
	t := software + sim.Time(extraHops)*m.cfg.PerHop
	if dx > 0 {
		t += m.deg.HopCost(0, dx, m.cfg.PerHop)
	}
	if dy > 0 {
		t += m.deg.HopCost(1, dy, m.cfg.PerHop)
	}
	return m.deg.Message(t, transfer)
}

func (m *refMesh) Latency(src, dst, bytes int) sim.Time {
	m.validate(src)
	m.validate(dst)
	return m.latency(src, dst, 0, bytes)
}

func (m *refMesh) Send(src, dst, bytes int, deliver func()) {
	m.ship(m.Latency(src, dst, bytes), bytes, deliver)
}

func (m *refMesh) latencyFrom(src, host, bytes int) sim.Time {
	m.validate(src)
	return m.latency(src, host, 1, bytes)
}

func (m *refMesh) Attach(host int) refAttachment {
	m.validate(host)
	return refPeriph{n: m, host: host}
}

// refFattreePod is the number of nodes under one edge switch. Machines
// smaller than a pod collapse to a single switch.
const refFattreePod = 16

func init() {
	refRegister("fattree",
		func(Config) int { return 2 }, // edge and spine levels
		func(k *sim.Kernel, nodes int, cfg Config) refInterconnect {
			return newRefFattree(k, nodes, cfg)
		})
}

// refFattree is a two-level folded Clos: nodes hang off edge switches in
// pods of 16, and every edge switch uplinks to a spine layer. Hop
// count is distance-independent -- 2 within a pod (up to the edge
// switch and down), 4 across pods (edge, spine, edge) -- which is the
// property that separates a modern cluster fabric from the hypercube's
// distance-sensitive routing. A spine crossing pays the slower of the
// edge and spine bandwidth tiers (Config.SpineBytesPerSecond).
//
// Link classes: 0 = edge links (node <-> edge switch), 1 = spine
// links (edge switch <-> spine).
type refFattree struct {
	refBase
	spineBW float64
}

func newRefFattree(k *sim.Kernel, nodes int, cfg Config) *refFattree {
	refCheckCommon("fattree", cfg)
	if nodes <= 0 {
		panic(fmt.Sprintf("fattree: node count %d not positive", nodes))
	}
	spine := cfg.SpineBytesPerSecond
	if spine == 0 {
		spine = cfg.BytesPerSecond
	}
	if spine < 0 {
		panic("fattree: spine bandwidth must be non-negative")
	}
	if spine > cfg.BytesPerSecond {
		// The transfer pays the path's slowest tier; a faster spine
		// never shows.
		spine = cfg.BytesPerSecond
	}
	return &refFattree{refBase: refBase{k: k, cfg: cfg, nodes: nodes}, spineBW: spine}
}

func (f *refFattree) LinkClasses() int { return 2 }

func (f *refFattree) ClassName(class int) string {
	if class == 0 {
		return "edge"
	}
	return "spine"
}

// latency models one message. src == dst stays on the node (software
// cost only, as on the hypercube); a peripheral hop is class-less,
// exactly like the cube's peripheral links.
func (f *refFattree) latency(src, dst, extraHops, bytes int) sim.Time {
	software := f.software(bytes)
	crossing := src/refFattreePod != dst/refFattreePod
	bw := f.cfg.BytesPerSecond
	if crossing {
		bw = f.spineBW
	}
	transfer := refTransferAt(bytes, bw)
	edgeHops, spineHops := 0, 0
	if src != dst {
		edgeHops = 2
		if crossing {
			spineHops = 2
		}
	}
	if f.deg == nil {
		return software + sim.Time(edgeHops+spineHops+extraHops)*f.cfg.PerHop + transfer
	}
	t := software + sim.Time(extraHops)*f.cfg.PerHop
	if edgeHops > 0 {
		t += f.deg.HopCost(0, edgeHops, f.cfg.PerHop)
	}
	if spineHops > 0 {
		t += f.deg.HopCost(1, spineHops, f.cfg.PerHop)
	}
	return f.deg.Message(t, transfer)
}

func (f *refFattree) Latency(src, dst, bytes int) sim.Time {
	f.validate(src)
	f.validate(dst)
	return f.latency(src, dst, 0, bytes)
}

func (f *refFattree) Send(src, dst, bytes int, deliver func()) {
	f.ship(f.Latency(src, dst, bytes), bytes, deliver)
}

func (f *refFattree) latencyFrom(src, host, bytes int) sim.Time {
	f.validate(src)
	return f.latency(src, host, 1, bytes)
}

func (f *refFattree) Attach(host int) refAttachment {
	f.validate(host)
	return refPeriph{n: f, host: host}
}

// recCall is one Degrader call: HopCost(class, hops, a), or Message(a,
// b) when class is -1.
type recCall struct {
	class, hops int
	a, b        sim.Time
}

// recorder is a Degrader that logs every call. Its answers depend on
// the class, the hop count and the split between base and transfer, so
// a call charged to the wrong class, merged, split or reordered changes
// the latency as well as the log.
type recorder struct{ log []recCall }

func (r *recorder) HopCost(class, hops int, perHop sim.Time) sim.Time {
	r.log = append(r.log, recCall{class, hops, perHop, 0})
	return sim.Time(hops)*perHop*sim.Time(class+2) + sim.Time(31*class+hops)
}

func (r *recorder) Message(base, transfer sim.Time) sim.Time {
	r.log = append(r.log, recCall{-1, 0, base, transfer})
	return 3*base + 7*transfer + 1
}

// netSurface is the node-to-node surface the Network and its reference
// share.
type netSurface interface {
	Nodes() int
	Latency(src, dst, bytes int) sim.Time
	Send(src, dst, bytes int, deliver func())
	SetDegrader(Degrader)
	Delivered() int64
	BytesSent() int64
	LinkClasses() int
}

// peripheral is the surface Attachment and refAttachment share.
type peripheral interface {
	Host() int
	LatencyFrom(src, bytes int) sim.Time
	SendTo(src, bytes int, deliver func())
	SendFrom(dst, bytes int, deliver func())
}

type message struct{ src, dst, bytes int }

// observation is everything the differential test reads off one
// network.
type observation struct {
	Nodes       int
	Hosts       []int
	Latency     []sim.Time
	LatencyFrom []sim.Time
	// Arrivals holds each message's Send, SendTo and SendFrom
	// delivery times.
	Arrivals         []sim.Time
	Delivered, Bytes int64
	Classes          int
	Log              []recCall
}

// observe drives msgs through n, under a recorder when degraded: the
// latencies, then every delivery on k.
func observe(k *sim.Kernel, n netSurface, attach func(host int) peripheral, msgs []message, degraded bool) observation {
	var rec *recorder
	if degraded {
		rec = &recorder{}
		n.SetDegrader(rec)
	}
	o := observation{Nodes: n.Nodes(), Arrivals: make([]sim.Time, 3*len(msgs))}
	for i, m := range msgs {
		p := attach(m.dst)
		o.Hosts = append(o.Hosts, p.Host())
		o.Latency = append(o.Latency, n.Latency(m.src, m.dst, m.bytes))
		o.LatencyFrom = append(o.LatencyFrom, p.LatencyFrom(m.src, m.bytes))
		at := o.Arrivals[3*i : 3*i+3]
		n.Send(m.src, m.dst, m.bytes, func() { at[0] = k.Now() })
		p.SendTo(m.src, m.bytes, func() { at[1] = k.Now() })
		p.SendFrom(m.src, m.bytes, func() { at[2] = k.Now() })
	}
	k.Run()
	o.Delivered, o.Bytes = n.Delivered(), n.BytesSent()
	o.Classes = n.LinkClasses()
	if rec != nil {
		o.Log = rec.log
	}
	return o
}

// recovered runs f and returns what it panicked with, or nil.
func recovered(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// randomTimings returns a configuration of the given kind with random
// software, hop and packet costs and a log-uniform bandwidth from
// 10 KB/s to 100 GB/s.
func randomTimings(rng *rand.Rand, kind string) Config {
	return Config{
		Kind:           kind,
		Startup:        sim.Time(rng.IntN(500)),
		PerHop:         sim.Time(rng.IntN(100)),
		PerPacket:      sim.Time(rng.IntN(100)),
		PacketBytes:    1 + rng.IntN(8192),
		BytesPerSecond: math.Pow(10, 4+7*rng.Float64()),
	}
}

// randomMessages returns messages between random nodes, with self
// messages, empty messages, exact packet multiples and sizes one byte
// either side of a packet boundary among them.
func randomMessages(rng *rand.Rand, nodes, packet int) []message {
	var msgs []message
	for i := 0; i < 24; i++ {
		m := message{src: rng.IntN(nodes), dst: rng.IntN(nodes)}
		if i%5 == 0 {
			m.dst = m.src
		}
		switch i % 4 {
		case 0:
			m.bytes = 0
		case 1:
			m.bytes = rng.IntN(64) * packet
		case 2:
			m.bytes = max(0, (1+rng.IntN(8))*packet+rng.IntN(3)-1)
		default:
			m.bytes = rng.IntN(1 << 22)
		}
		msgs = append(msgs, m)
	}
	return msgs
}

// compareNetworks builds cfg both ways on nodes compute nodes and
// requires the same panic, or the same observation healthy and under a
// recorder.
func compareNetworks(t *testing.T, rng *rand.Rand, nodes int, cfg Config) {
	t.Helper()
	var msgs []message
	if nodes > 0 {
		msgs = randomMessages(rng, nodes, max(cfg.PacketBytes, 1))
	}
	for _, degraded := range []bool{false, true} {
		var got, want observation
		gotPanic := recovered(func() {
			k := sim.New()
			n := New(k, nodes, cfg)
			got = observe(k, n, func(h int) peripheral { return n.Attach(h) }, msgs, degraded)
		})
		wantPanic := recovered(func() {
			k := sim.New()
			n := refNew(k, nodes, cfg)
			want = observe(k, n, func(h int) peripheral { return n.Attach(h) }, msgs, degraded)
		})
		if !reflect.DeepEqual(gotPanic, wantPanic) {
			t.Fatalf("%d nodes, %+v: New panicked with %v, reference with %v", nodes, cfg, gotPanic, wantPanic)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d nodes, %+v, degraded %v:\ngot  %+v\nwant %+v", nodes, cfg, degraded, got, want)
		}
	}
	gotPanic := recovered(func() { _ = LinkClasses(cfg) })
	wantPanic := recovered(func() { _ = refLinkClasses(cfg) })
	if !reflect.DeepEqual(gotPanic, wantPanic) ||
		(gotPanic == nil && LinkClasses(cfg) != refLinkClasses(cfg)) {
		t.Fatalf("%+v: LinkClasses disagrees with the reference", cfg)
	}
}

// TestNetworkMatchesReference drives the Network beside the per-topology
// models it replaced: cubes of dimension 0-8, power-of-two meshes of 1
// to 256 nodes, and fat trees of 1 to 300 nodes with the spine at zero,
// below, equal to and above the edge rate, each with random timings,
// healthy and degraded; then the configurations New must refuse, and
// the name table.
func TestNetworkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 1))
	spellings := []string{"hypercube", "", "HyperCube"}
	for dim := 0; dim <= 8; dim++ {
		for i := 0; i < 4; i++ {
			cfg := randomTimings(rng, spellings[i%len(spellings)])
			cfg.Dim = dim
			compareNetworks(t, rng, 1<<dim, cfg)
		}
	}
	for order := 0; order <= 8; order++ {
		for i := 0; i < 4; i++ {
			compareNetworks(t, rng, 1<<order, randomTimings(rng, "mesh"))
		}
	}
	for nodes := 1; nodes <= 300; nodes++ {
		for spine := 0; spine < 4; spine++ {
			cfg := randomTimings(rng, "fattree")
			switch spine {
			case 1:
				cfg.SpineBytesPerSecond = cfg.BytesPerSecond * (0.05 + 0.9*rng.Float64())
			case 2:
				cfg.SpineBytesPerSecond = cfg.BytesPerSecond
			case 3:
				cfg.SpineBytesPerSecond = cfg.BytesPerSecond * (1 + 9*rng.Float64())
			}
			compareNetworks(t, rng, nodes, cfg)
		}
	}

	// Configurations New refuses, and unknown kinds.
	for _, tc := range []struct {
		nodes int
		edit  func(*Config)
	}{
		{32, func(c *Config) { c.Dim = -1 }},
		{32, func(c *Config) { c.Dim = 17 }},
		{64, func(c *Config) {}},
		{32, func(c *Config) { c.PacketBytes = 0 }},
		{32, func(c *Config) { c.Dim, c.PacketBytes = 17, 0 }},
		{32, func(c *Config) { c.BytesPerSecond = -1 }},
		{32, func(c *Config) { c.Kind = "torus" }},
		{32, func(c *Config) { c.Kind = "mesh " }},
		{24, func(c *Config) { c.Kind = "mesh" }},
		{0, func(c *Config) { c.Kind = "mesh" }},
		{-4, func(c *Config) { c.Kind = "mesh" }},
		{32, func(c *Config) { c.Kind, c.PacketBytes = "mesh", -1 }},
		{32, func(c *Config) { c.Kind, c.BytesPerSecond = "mesh", 0 }},
		{0, func(c *Config) { c.Kind = "fattree" }},
		{-1, func(c *Config) { c.Kind = "fattree" }},
		{32, func(c *Config) { c.Kind, c.SpineBytesPerSecond = "fattree", -1 }},
		{32, func(c *Config) { c.Kind, c.PacketBytes = "fattree", 0 }},
		{32, func(c *Config) { c.Kind, c.BytesPerSecond = "fattree", 0 }},
		{0, func(c *Config) { c.Kind, c.BytesPerSecond = "fattree", 0 }},
	} {
		cfg := randomTimings(rng, "hypercube")
		cfg.Dim = 5
		tc.edit(&cfg)
		compareNetworks(t, rng, tc.nodes, cfg)
	}

	// Out-of-range nodes panic alike.
	for _, kind := range refNames() {
		cfg := randomTimings(rng, kind)
		cfg.Dim = 5
		n, ref := New(sim.New(), 32, cfg), refNew(sim.New(), 32, cfg)
		for _, id := range []int{-1, 32} {
			for _, op := range []struct {
				name      string
				got, want func()
			}{
				{"Latency from", func() { n.Latency(id, 0, 1) }, func() { ref.Latency(id, 0, 1) }},
				{"Latency to", func() { n.Latency(0, id, 1) }, func() { ref.Latency(0, id, 1) }},
				{"Attach", func() { n.Attach(id) }, func() { ref.Attach(id) }},
				{"LatencyFrom", func() { n.Attach(3).LatencyFrom(id, 1) }, func() { ref.Attach(3).LatencyFrom(id, 1) }},
				{"negative size", func() { n.Latency(0, 1, -1) }, func() { ref.Latency(0, 1, -1) }},
			} {
				if got, want := recovered(op.got), recovered(op.want); got == nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s %d: panicked with %v, reference with %v", kind, op.name, id, got, want)
				}
			}
		}
	}

	// The name table.
	if got, want := Names(), refNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, reference %v", got, want)
	}
	for _, name := range []string{"", "hypercube", "MESH", "FatTree", "torus", " mesh", "Hypercube2"} {
		got, gotErr := Resolve(name)
		want, wantErr := refResolve(name)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("Resolve(%q) = %q, %v; reference %q, %v", name, got, gotErr, want, wantErr)
		}
	}
}
