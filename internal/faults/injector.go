package faults

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
)

// faultStream labels the RNG stream the injector splits off the
// machine seed for fault randomness (message jitter). Split does not
// consume the parent's state, so taking this stream leaves the clock
// and workload streams exactly where a fault-free build puts them.
const faultStream = 0xfa175

// Injector is the per-machine runtime state for one fault
// configuration. Build one per machine; it is not safe for concurrent
// use (each sweep worker builds its own machine and injector).
type Injector struct {
	cfg   Config
	nodes []*NodeState
	net   *NetState
}

// NewInjector builds the runtime state for cfg on a machine with
// ioNodes I/O nodes. rng is the machine's root RNG; the injector
// splits its own stream off it. cfg must have passed Validate.
func NewInjector(cfg Config, ioNodes int, rng *stats.RNG) *Injector {
	if err := cfg.Validate(ioNodes, 32); err != nil {
		// Shape errors are caught by callers with the real link-class
		// count; this is a backstop for hand-built configs.
		panic(fmt.Sprintf("faults: invalid config: %v", err))
	}
	inj := &Injector{cfg: cfg, nodes: make([]*NodeState, ioNodes)}
	for _, w := range cfg.Windows {
		ns := inj.nodeState(w.Node)
		ns.windows = append(ns.windows, window{
			start:  sim.Time(w.StartHours * float64(sim.Hour)),
			end:    sim.Time(w.EndHours * float64(sim.Hour)),
			factor: w.Slowdown,
			outage: w.Outage,
		})
	}
	if cfg.Hot.Multiplier > 1 {
		inj.nodeState(cfg.Hot.Node).hot = cfg.Hot.Multiplier
	}
	for _, ns := range inj.nodes {
		if ns != nil {
			sort.SliceStable(ns.windows, func(i, j int) bool {
				return ns.windows[i].start < ns.windows[j].start
			})
		}
	}
	n := cfg.Net
	if n.LatencyMultiplier != 0 || n.BandwidthDivisor != 0 || n.JitterMicros != 0 || len(n.Links) > 0 {
		st := &NetState{cfg: n}
		if n.JitterMicros > 0 {
			st.rng = rng.Split(faultStream)
		}
		if len(n.Links) > 0 {
			maxDim := 0
			for _, l := range n.Links {
				if l.Dim > maxDim {
					maxDim = l.Dim
				}
			}
			st.linkMul = make([]float64, maxDim+1)
			for i := range st.linkMul {
				st.linkMul[i] = 1
			}
			for _, l := range n.Links {
				st.linkMul[l.Dim] = l.LatencyMultiplier
			}
		}
		inj.net = st
	}
	return inj
}

func (inj *Injector) nodeState(i int) *NodeState {
	if inj.nodes[i] == nil {
		inj.nodes[i] = &NodeState{node: i, hot: 1}
	}
	return inj.nodes[i]
}

// Node returns I/O node i's fault state, or nil when the node has no
// node-level faults configured (the hot path then skips the hook
// entirely).
func (inj *Injector) Node(i int) *NodeState { return inj.nodes[i] }

// Net returns the interconnect degradation state, or nil when the
// network is healthy.
func (inj *Injector) Net() *NetState { return inj.net }

// DiskWear reports the configured drive wear, false when drives are
// healthy.
func (inj *Injector) DiskWear() (Wear, bool) {
	return inj.cfg.Wear, inj.cfg.Wear != (Wear{})
}

// window is a resolved degradation window in simulation time.
type window struct {
	start, end sim.Time
	factor     float64
	outage     bool
}

// NodeState tracks one I/O node's degradation windows, hot-node skew,
// and accumulated statistics. It implements the cfs.NodeFault hook.
type NodeState struct {
	node    int
	windows []window // sorted by start
	hot     float64  // permanent multiplier, 1 when none

	base     sim.Time // service time before scaling
	actual   sim.Time // service time after scaling
	degraded sim.Time // actual service time spent with factor != 1
	deferred int64    // requests pushed out of outage windows
	waited   sim.Time // total wait added by outages
}

// Admit returns the earliest time at or after start the node may begin
// service, deferring the n-request batch past any outage window in
// effect. Service already started when an outage begins runs to
// completion (the node finishes in-flight work, then goes dark).
func (s *NodeState) Admit(start sim.Time, n int) sim.Time {
	for _, w := range s.windows {
		if w.start > start {
			break
		}
		if w.outage && start < w.end {
			s.deferred += int64(n)
			s.waited += w.end - start
			start = w.end
		}
	}
	return start
}

// factor returns the service-time multiplier in effect at time t.
func (s *NodeState) factor(t sim.Time) float64 {
	f := s.hot
	for _, w := range s.windows {
		if w.start > t {
			break
		}
		if !w.outage && t < w.end {
			f *= w.factor
		}
	}
	return f
}

// Scale inflates a service duration beginning at start by the
// degradation factor in effect then, and accumulates the node's
// inflation statistics.
func (s *NodeState) Scale(start, dur sim.Time) sim.Time {
	out := dur
	if f := s.factor(start); f != 1 {
		out = sim.Time(float64(dur) * f)
		s.degraded += out
	}
	s.base += dur
	s.actual += out
	return out
}

// NetState applies the interconnect degradation and tracks message
// statistics. It implements the topo.Degrader hook: the topology
// calls HopCost once per link class a message crosses, then Message
// exactly once per message.
type NetState struct {
	cfg     Net
	rng     *stats.RNG
	linkMul []float64 // per-link-class multiplier, nil when no link faults

	messages int64
	jittered int64
	jitter   sim.Time
}

// HopCost returns the possibly degraded cost of hops traversals of
// links in the given class (a hypercube dimension, a mesh axis, a
// fat-tree level); perHop is the healthy per-hop unit. Each degraded
// hop's cost is truncated to the clock tick individually, matching
// the arithmetic of the hypercube-only builds that came first.
func (d *NetState) HopCost(class, hops int, perHop sim.Time) sim.Time {
	if d.linkMul == nil {
		return sim.Time(hops) * perHop
	}
	m := 1.0
	if class < len(d.linkMul) {
		m = d.linkMul[class]
	}
	return sim.Time(hops) * sim.Time(float64(perHop)*m)
}

// Message degrades one message's modeled latency: base is the
// software cost plus every hop cost, transfer the healthy bandwidth
// cost. The kernel is single-threaded and every simulated message
// calls this exactly once, so the jitter stream is consumed in a
// deterministic order.
func (d *NetState) Message(base, transfer sim.Time) sim.Time {
	t := base
	if m := d.cfg.LatencyMultiplier; m > 1 {
		t = sim.Time(float64(t) * m)
	}
	if div := d.cfg.BandwidthDivisor; div > 1 {
		transfer = sim.Time(float64(transfer) * div)
	}
	t += transfer
	d.messages++
	if d.cfg.JitterMicros > 0 {
		j := sim.Time(d.rng.Float64() * d.cfg.JitterMicros * float64(sim.Microsecond))
		t += j
		d.jitter += j
		d.jittered++
	}
	return t
}
