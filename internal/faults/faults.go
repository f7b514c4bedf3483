// Package faults describes deterministic hardware degradation injected
// into the simulated iPSC/860: per-I/O-node slowdown or outage windows,
// progressive disk wear, a degraded interconnect, and hot-node skew.
//
// Faults change *service times only*. All fault randomness (message
// jitter) comes from a dedicated stats.RNG stream split off the study
// seed, never from the workload stream, so enabling faults leaves the
// generated workload untouched and a faulted study is byte-identical
// across repeat runs and worker counts. A zero Config is "no faults"
// and leaves the machine's output byte-identical to a fault-free build.
//
// The hardware models (disk, cfs, topo) do not import this package;
// they expose small hook points (a disk.Wear given to Disk.SetWear, a
// cfs.NodeFault given to IONode.SetFault, a topo.Degrader given to
// Network.SetDegrader) that the machine package wires to the runtime
// state built here.
package faults

import (
	"fmt"
)

// SpecVersion is the faults-block schema version this build writes and
// accepts.
const SpecVersion = 1

// Validation bounds. Multipliers are capped so a typo cannot produce a
// simulation that never terminates; windows are capped far above any
// realistic horizon (the full-scale study is ~156 hours).
const (
	maxMultiplier   = 1e6
	maxWindowHours  = 1e6
	maxRampPerHour  = 1e6
	maxJitterMicros = 1e9
)

// Config is the resolved, validated fault description a machine runs
// with. It is a pure value type (no pointers, maps, or funcs) so that
// it renders stably under fmt's %+v — the run store fingerprints
// machine configurations that way. The zero value means "no faults".
type Config struct {
	// Windows are per-I/O-node degradation windows.
	Windows []Window
	// Wear degrades every drive in the machine.
	Wear Wear
	// Net degrades the interconnect.
	Net Net
	// Hot gives one I/O node a permanent service-time multiplier.
	Hot Hot
}

// Window degrades one I/O node over [StartHours, EndHours) of virtual
// time: either every service takes Slowdown times as long, or (Outage)
// the node stops serving entirely and requests queue until the window
// ends.
type Window struct {
	Node       int
	StartHours float64
	EndHours   float64
	Slowdown   float64 // >= 1; must be 0 when Outage is set
	Outage     bool
}

// Wear models aging drives: seek and transfer multipliers, plus a
// progressive ramp that scales both by (1 + RampPerHour * simulated
// hours), so the machine gets slower the longer the study runs. On a
// flash drive the seek multiplier scales the access latency. Zero
// fields are "off".
type Wear struct {
	SeekMultiplier     float64 // >= 1, 0 = off
	TransferMultiplier float64 // >= 1, 0 = off
	RampPerHour        float64 // >= 0, 0 = off
}

// Net degrades the interconnect: a global latency multiplier on the
// software and per-hop costs, a bandwidth divisor on the transfer
// cost, deterministic per-message jitter drawn from the fault stream,
// and per-dimension link latency multipliers. Zero fields are "off".
type Net struct {
	LatencyMultiplier float64 // >= 1, 0 = off
	BandwidthDivisor  float64 // >= 1, 0 = off
	JitterMicros      float64 // max uniform per-message jitter, 0 = off
	Links             []Link
}

// Link multiplies the per-hop latency of every link in one link class:
// Dim names the class (a hypercube dimension, a mesh axis, or a
// fat-tree level; see topo.Network.LinkClasses).
type Link struct {
	Dim               int
	LatencyMultiplier float64 // >= 1
}

// Hot is hot-node skew: I/O node Node serves every request Multiplier
// times slower, permanently. Zero Multiplier = off.
type Hot struct {
	Node       int
	Multiplier float64 // >= 1, 0 = off
}

// Enabled reports whether the configuration injects anything at all.
func (c *Config) Enabled() bool {
	return len(c.Windows) > 0 ||
		c.Wear != (Wear{}) ||
		c.Net.LatencyMultiplier != 0 || c.Net.BandwidthDivisor != 0 ||
		c.Net.JitterMicros != 0 || len(c.Net.Links) > 0 ||
		c.Hot.Multiplier != 0
}

// checkMul validates an optional multiplier: 0 (off) or in
// [1, maxMultiplier], finite. The negated-range form rejects NaN.
func checkMul(field string, v float64) error {
	if v == 0 {
		return nil
	}
	if !(v >= 1 && v <= maxMultiplier) {
		return fmt.Errorf("faults: %s %v out of range [1, %g]", field, v, maxMultiplier)
	}
	return nil
}

// Validate checks the configuration against a machine shape: ioNodes
// I/O nodes and an interconnect with linkClasses link classes (the
// topology's LinkClasses). Errors name the offending field.
func (c *Config) Validate(ioNodes, linkClasses int) error {
	for i, w := range c.Windows {
		if w.Node < 0 || w.Node >= ioNodes {
			return fmt.Errorf("faults: ioNodes[%d].node %d out of range [0, %d)", i, w.Node, ioNodes)
		}
		if !(w.StartHours >= 0 && w.StartHours <= maxWindowHours) {
			return fmt.Errorf("faults: ioNodes[%d].startHours %v out of range [0, %g]", i, w.StartHours, maxWindowHours)
		}
		if !(w.EndHours > w.StartHours && w.EndHours <= maxWindowHours) {
			return fmt.Errorf("faults: ioNodes[%d].endHours %v must be in (startHours, %g]", i, w.EndHours, maxWindowHours)
		}
		if w.Outage {
			if w.Slowdown != 0 {
				return fmt.Errorf("faults: ioNodes[%d] sets both outage and slowdown %v", i, w.Slowdown)
			}
		} else if !(w.Slowdown >= 1 && w.Slowdown <= maxMultiplier) {
			return fmt.Errorf("faults: ioNodes[%d].slowdown %v out of range [1, %g] (or set outage)", i, w.Slowdown, maxMultiplier)
		}
	}
	if err := checkMul("disk.seekMultiplier", c.Wear.SeekMultiplier); err != nil {
		return err
	}
	if err := checkMul("disk.transferMultiplier", c.Wear.TransferMultiplier); err != nil {
		return err
	}
	if r := c.Wear.RampPerHour; !(r >= 0 && r <= maxRampPerHour) {
		return fmt.Errorf("faults: disk.rampPerHour %v out of range [0, %g]", r, maxRampPerHour)
	}
	if err := checkMul("network.latencyMultiplier", c.Net.LatencyMultiplier); err != nil {
		return err
	}
	if err := checkMul("network.bandwidthDivisor", c.Net.BandwidthDivisor); err != nil {
		return err
	}
	if j := c.Net.JitterMicros; !(j >= 0 && j <= maxJitterMicros) {
		return fmt.Errorf("faults: network.jitterMicros %v out of range [0, %g]", j, maxJitterMicros)
	}
	seenDim := make(map[int]bool)
	for i, l := range c.Net.Links {
		if l.Dim < 0 || l.Dim >= linkClasses {
			return fmt.Errorf("faults: network.links[%d].dim %d out of range [0, %d)", i, l.Dim, linkClasses)
		}
		if seenDim[l.Dim] {
			return fmt.Errorf("faults: network.links[%d] repeats dim %d", i, l.Dim)
		}
		seenDim[l.Dim] = true
		if !(l.LatencyMultiplier >= 1 && l.LatencyMultiplier <= maxMultiplier) {
			return fmt.Errorf("faults: network.links[%d].latencyMultiplier %v out of range [1, %g]", i, l.LatencyMultiplier, maxMultiplier)
		}
	}
	if c.Hot.Multiplier != 0 {
		if c.Hot.Node < 0 || c.Hot.Node >= ioNodes {
			return fmt.Errorf("faults: hotNode.node %d out of range [0, %d)", c.Hot.Node, ioNodes)
		}
		if err := checkMul("hotNode.multiplier", c.Hot.Multiplier); err != nil {
			return err
		}
	}
	return nil
}

// Spec is the JSON-facing, versioned faults block of a scenario spec.
// Decode it with DisallowUnknownFields and call Resolve to get the
// validated Config.
type Spec struct {
	Version int          `json:"version"`
	IONodes []WindowSpec `json:"ioNodes,omitempty"`
	Disk    *WearSpec    `json:"disk,omitempty"`
	Network *NetSpec     `json:"network,omitempty"`
	HotNode *HotSpec     `json:"hotNode,omitempty"`
}

// WindowSpec is the JSON form of a Window.
type WindowSpec struct {
	Node       int     `json:"node"`
	StartHours float64 `json:"startHours"`
	EndHours   float64 `json:"endHours"`
	Slowdown   float64 `json:"slowdown,omitempty"`
	Outage     bool    `json:"outage,omitempty"`
}

// WearSpec is the JSON form of Wear.
type WearSpec struct {
	SeekMultiplier     float64 `json:"seekMultiplier,omitempty"`
	TransferMultiplier float64 `json:"transferMultiplier,omitempty"`
	RampPerHour        float64 `json:"rampPerHour,omitempty"`
}

// NetSpec is the JSON form of Net.
type NetSpec struct {
	LatencyMultiplier float64    `json:"latencyMultiplier,omitempty"`
	BandwidthDivisor  float64    `json:"bandwidthDivisor,omitempty"`
	JitterMicros      float64    `json:"jitterMicros,omitempty"`
	Links             []LinkSpec `json:"links,omitempty"`
}

// LinkSpec is the JSON form of Link.
type LinkSpec struct {
	Dim               int     `json:"dim"`
	LatencyMultiplier float64 `json:"latencyMultiplier"`
}

// HotSpec is the JSON form of Hot.
type HotSpec struct {
	Node       int     `json:"node"`
	Multiplier float64 `json:"multiplier"`
}

// Resolve converts the JSON spec into a Config. It checks the schema
// version but not machine-shape bounds; call Config.Validate with the
// target machine's I/O-node count and link-class count for those.
func (s *Spec) Resolve() (Config, error) {
	if s.Version != SpecVersion {
		return Config{}, fmt.Errorf("faults: unsupported version %d (this build reads version %d)", s.Version, SpecVersion)
	}
	var c Config
	for _, w := range s.IONodes {
		c.Windows = append(c.Windows, Window{
			Node:       w.Node,
			StartHours: w.StartHours,
			EndHours:   w.EndHours,
			Slowdown:   w.Slowdown,
			Outage:     w.Outage,
		})
	}
	if d := s.Disk; d != nil {
		c.Wear = Wear{
			SeekMultiplier:     d.SeekMultiplier,
			TransferMultiplier: d.TransferMultiplier,
			RampPerHour:        d.RampPerHour,
		}
	}
	if n := s.Network; n != nil {
		c.Net = Net{
			LatencyMultiplier: n.LatencyMultiplier,
			BandwidthDivisor:  n.BandwidthDivisor,
			JitterMicros:      n.JitterMicros,
		}
		for _, l := range n.Links {
			c.Net.Links = append(c.Net.Links, Link{Dim: l.Dim, LatencyMultiplier: l.LatencyMultiplier})
		}
	}
	if h := s.HotNode; h != nil {
		c.Hot = Hot{Node: h.Node, Multiplier: h.Multiplier}
	}
	return c, nil
}
