package topo

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

func init() {
	Register("hypercube",
		func(cfg Config) int { return cfg.Dim }, // one class per dimension
		func(k *sim.Kernel, nodes int, cfg Config) Interconnect {
			return newHypercube(k, nodes, cfg)
		})
}

// hypercube is the iPSC/860 interconnect: a Dim-dimensional binary
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
type hypercube struct{ base }

func newHypercube(k *sim.Kernel, nodes int, cfg Config) *hypercube {
	if cfg.Dim < 0 || cfg.Dim > 16 {
		panic(fmt.Sprintf("hypercube: unreasonable dimension %d", cfg.Dim))
	}
	checkCommon("hypercube", cfg)
	if nodes != 1<<cfg.Dim {
		panic(fmt.Sprintf("hypercube: dimension %d (%d nodes) disagrees with node count %d",
			cfg.Dim, 1<<cfg.Dim, nodes))
	}
	return &hypercube{base{k: k, cfg: cfg, nodes: nodes}}
}

func (h *hypercube) LinkClasses() int { return h.cfg.Dim }

func (h *hypercube) ClassName(class int) string { return fmt.Sprintf("dim%d", class) }

// latency models one message: software cost, one hop per differing
// address bit, and bandwidth transfer, with extraHops peripheral-link
// hops.
func (h *hypercube) latency(src, dst, extraHops, bytes int) sim.Time {
	software := h.software(bytes)
	transfer := transferAt(bytes, h.cfg.BytesPerSecond)
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

func (h *hypercube) Latency(src, dst, bytes int) sim.Time {
	h.validate(src)
	h.validate(dst)
	return h.latency(src, dst, 0, bytes)
}

func (h *hypercube) Send(src, dst, bytes int, deliver func()) {
	h.ship(h.Latency(src, dst, bytes), bytes, deliver)
}

func (h *hypercube) latencyFrom(src, host, bytes int) sim.Time {
	h.validate(src)
	return h.latency(src, host, 1, bytes)
}

func (h *hypercube) Attach(host int) Attachment {
	h.validate(host)
	return periph{n: h, host: host}
}
