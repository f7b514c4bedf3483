package topo_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// linkDegrader prices class-1 links (the cube's dimension 1, the
// mesh's y axis, the fat tree's spine) at twice the healthy per-hop
// cost and doubles every message's base, as a link fault and a latency
// multiplier would, without drawing jitter.
type linkDegrader struct{}

func (linkDegrader) HopCost(class, hops int, perHop sim.Time) sim.Time {
	if class == 1 {
		perHop *= 2
	}
	return sim.Time(hops) * perHop
}

func (linkDegrader) Message(base, transfer sim.Time) sim.Time { return 2*base + transfer }

var latencySink sim.Time

// BenchmarkLatency prices messages on a 128-node network of each
// topology, the fat tree's spine at half its edge rate: node to node
// (Latency) and from a node to an I/O node's peripheral link
// (LatencyFrom, the path every CFS leg takes), healthy and degraded.
// Sources, destinations and sizes cycle so that every route length
// and both sides of a packet boundary are priced.
func BenchmarkLatency(b *testing.B) {
	sizes := [4]int{0, 100, 4096, 4097}
	for _, kind := range kinds {
		cfg := testConfig(kind)
		cfg.Dim = 7
		cfg.SpineBytesPerSecond = cfg.BytesPerSecond / 2
		for _, state := range []string{"healthy", "degraded"} {
			n := topo.New(sim.New(), 128, cfg)
			if state == "degraded" {
				n.SetDegrader(linkDegrader{})
			}
			att := n.Attach(37)
			b.Run(kind+"/Latency/"+state, func(b *testing.B) {
				var sum sim.Time
				for i := 0; i < b.N; i++ {
					sum += n.Latency(i&127, (i*37+11)&127, sizes[i&3])
				}
				latencySink = sum
			})
			b.Run(kind+"/LatencyFrom/"+state, func(b *testing.B) {
				var sum sim.Time
				for i := 0; i < b.N; i++ {
					sum += att.LatencyFrom((i*37+11)&127, sizes[i&3])
				}
				latencySink = sum
			})
		}
	}
}
