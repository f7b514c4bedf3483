// Package topo abstracts the simulated machine's interconnect behind
// a registry of topology models, so the same CFS stack, fault
// injector, and analytical twin run on the iPSC/860's hypercube, a
// k-ary 2D mesh, or a modern two-level fat tree without knowing which.
//
// Every model shares the latency decomposition the hypercube
// established: a per-message software cost (startup plus per-packet
// handling), a per-hop link cost, and a bandwidth transfer cost. What
// varies is the hop count between two nodes and, for the fat tree,
// which bandwidth tier the transfer pays. Topologies expose their
// links grouped into named *classes* (hypercube dimensions, mesh axes,
// fat-tree levels) so fault injection can degrade "all x-axis links"
// on any topology the way it degrades "all dimension-3 links" on the
// cube.
//
// Models register themselves by name in init; the hypercube, mesh, and
// fat tree all live here and share the software, transfer, shipping,
// and peripheral-attachment code in common.go. The registry is the
// single point a machine preset or a scenario's machines axis resolves
// a topology name through.
package topo

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sim"
)

// Config holds the parameters of an interconnect, whatever its
// topology. It is a pure value type (the run store renders machine
// configurations with fmt's %+v).
type Config struct {
	// Kind names the topology in the registry; "" means "hypercube",
	// the machine this reproduction started from.
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

// Interconnect is the surface the machine and its CFS transport use:
// node-to-node latency and delivery, peripheral attachments, a
// degradation hook, and traffic counters.
type Interconnect interface {
	// Nodes returns the number of compute nodes.
	Nodes() int
	// Latency returns the modeled delivery time for a bytes-sized
	// message between compute nodes src and dst.
	Latency(src, dst, bytes int) sim.Time
	// Send schedules deliver to run after Latency(src, dst, bytes).
	Send(src, dst, bytes int, deliver func())
	// Attach returns a peripheral (I/O or service node) hanging one
	// dedicated link off the given host compute node.
	Attach(host int) Attachment
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

// Attachment is a peripheral node (I/O node or service node) attached
// to one compute node by a dedicated link, as on the iPSC/860.
type Attachment interface {
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

// Degrader adjusts message latencies (see internal/faults). A nil
// Degrader means healthy. Topologies call HopCost once per link class
// a message crosses, then Message exactly once per message, so
// degradation statistics and the jitter stream are consumed in a
// deterministic order.
type Degrader interface {
	// HopCost returns the possibly degraded cost of hops traversals
	// of links in the given class; perHop is the healthy per-hop unit.
	HopCost(class, hops int, perHop sim.Time) sim.Time
	// Message finishes one message: base is the software cost plus
	// every hop cost, transfer the healthy bandwidth cost. The
	// implementation may inflate either and add jitter.
	Message(base, transfer sim.Time) sim.Time
}

// Factory builds an interconnect for a machine with the given compute
// node count. Factories panic on configurations that cannot describe
// the machine (as hardware model constructors do throughout);
// name resolution errors are caught earlier via Resolve.
type Factory func(k *sim.Kernel, nodes int, cfg Config) Interconnect

type entry struct {
	factory Factory
	// classes reports the topology's link-class count for a
	// configuration without building a network.
	classes func(cfg Config) int
}

var (
	regMu    sync.RWMutex
	registry = map[string]entry{}
)

// Register adds a topology model to the registry. It panics on a
// duplicate or empty name; call it from init.
func Register(name string, classes func(Config) int, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" || name != strings.ToLower(name) {
		panic(fmt.Sprintf("topo: register %q: names must be non-empty lowercase", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("topo: duplicate registration %q", name))
	}
	if classes == nil || f == nil {
		panic(fmt.Sprintf("topo: register %q: nil classes or factory", name))
	}
	registry[name] = entry{factory: f, classes: classes}
}

// Names returns the registered topology names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Resolve normalizes a topology name (case-insensitive, "" means
// "hypercube") and reports whether it is registered.
func Resolve(name string) (string, error) {
	kind := strings.ToLower(name)
	if kind == "" {
		kind = "hypercube"
	}
	regMu.RLock()
	_, ok := registry[kind]
	regMu.RUnlock()
	if !ok {
		return "", fmt.Errorf("topo: unknown topology %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
	return kind, nil
}

func lookup(cfg Config) entry {
	kind, err := Resolve(cfg.Kind)
	if err != nil {
		panic(err.Error())
	}
	regMu.RLock()
	defer regMu.RUnlock()
	return registry[kind]
}

// New builds the interconnect cfg describes for a machine with the
// given compute-node count. The kind must be registered: callers
// validate names through Resolve at configuration time.
func New(k *sim.Kernel, nodes int, cfg Config) Interconnect {
	return lookup(cfg).factory(k, nodes, cfg)
}

// LinkClasses reports the link-class count of the topology cfg
// describes, without building a network (fault validation needs it
// before any kernel exists).
func LinkClasses(cfg Config) int {
	return lookup(cfg).classes(cfg)
}
