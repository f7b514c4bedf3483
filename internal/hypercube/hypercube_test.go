// The iPSC/860's binary hypercube is implemented in internal/topo,
// where it is the default topology kind. These tests drive
// it through topo's exported API: the machine's own parameters
// (topo.IPSC860) for its shape and delivery, and round-number
// parameters that make every expected latency exact.
package hypercube_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// roundConfig returns a 128-node hypercube whose 4 KB packets at
// 4.096 GB/s make a one-packet transfer exactly 1 us.
func roundConfig() topo.Config {
	return topo.Config{
		Kind:           "hypercube",
		Dim:            7,
		Startup:        20 * sim.Microsecond,
		PerHop:         10 * sim.Microsecond,
		PerPacket:      5 * sim.Microsecond,
		PacketBytes:    4096,
		BytesPerSecond: 4.096e9,
	}
}

// software is what any message of at most one packet pays before it
// crosses a link.
func software(cfg topo.Config) sim.Time { return cfg.Startup + cfg.PerPacket }

// TestHops checks the e-cube distance: a message crosses one link per
// address bit its endpoints differ in.
func TestHops(t *testing.T) {
	cfg := roundConfig()
	n := topo.New(sim.New(), 128, cfg)
	for _, tc := range []struct{ a, b, hops int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 2},
		{0, 127, 7},
		{5, 6, 2}, // 101 vs 110
	} {
		want := software(cfg) + sim.Time(tc.hops)*cfg.PerHop
		if got := n.Latency(tc.a, tc.b, 0); got != want {
			t.Errorf("Latency(%d,%d) = %v, want %v (%d hops)", tc.a, tc.b, got, want, tc.hops)
		}
	}
}

func TestIPSC860Config(t *testing.T) {
	cfg := topo.IPSC860()
	if cfg.Kind != "" || cfg.Dim != 7 || cfg.PacketBytes != 4096 {
		t.Fatalf("IPSC860() = %+v, want the default kind, 7 dimensions, 4 KB packets", cfg)
	}
	if kind, err := topo.Resolve(cfg.Kind); err != nil || kind != "hypercube" {
		t.Fatalf("IPSC860 kind resolves to %q, %v", kind, err)
	}
}

func TestNetworkNodes(t *testing.T) {
	n := topo.New(sim.New(), 128, topo.IPSC860())
	if n.Nodes() != 128 {
		t.Fatalf("nodes = %d", n.Nodes())
	}
}

func TestLatencyGrowsWithDistance(t *testing.T) {
	cfg := roundConfig()
	n := topo.New(sim.New(), 128, cfg)
	near := n.Latency(0, 1, 100)
	far := n.Latency(0, 127, 100)
	if far-near != 6*cfg.PerHop {
		t.Fatalf("7-hop latency %v exceeds 1-hop latency %v by %v, want 6 hops (%v)", far, near, far-near, 6*cfg.PerHop)
	}
}

func TestLatencyGrowsWithSize(t *testing.T) {
	cfg := roundConfig()
	n := topo.New(sim.New(), 128, cfg)
	// One 4096-byte packet is exactly 1 us of transfer; 1 MiB is 256
	// packets and 256 us.
	if got, want := n.Latency(0, 1, 4096), software(cfg)+cfg.PerHop+1*sim.Microsecond; got != want {
		t.Fatalf("Latency(0,1,4096) = %v, want %v", got, want)
	}
	if got, want := n.Latency(0, 1, 1<<20), cfg.Startup+256*cfg.PerPacket+cfg.PerHop+256*sim.Microsecond; got != want {
		t.Fatalf("Latency(0,1,1MiB) = %v, want %v", got, want)
	}
}

func TestLatencyPacketization(t *testing.T) {
	cfg := roundConfig()
	n := topo.New(sim.New(), 128, cfg)
	// One byte past a full packet starts a second one; the byte's own
	// transfer time is below the clock's resolution.
	if gap := n.Latency(0, 1, 4097) - n.Latency(0, 1, 4096); gap != cfg.PerPacket {
		t.Fatalf("crossing a packet boundary added %v, want %v", gap, cfg.PerPacket)
	}
}

func TestZeroByteMessageStillCosts(t *testing.T) {
	cfg := roundConfig()
	n := topo.New(sim.New(), 128, cfg)
	// A zero-byte message to self still pays startup and one minimum
	// packet, with no hops and no transfer.
	if got := n.Latency(0, 0, 0); got != software(cfg) {
		t.Fatalf("self latency %v, want %v", got, software(cfg))
	}
}

func TestSendDeliversAtLatency(t *testing.T) {
	k := sim.New()
	n := topo.New(k, 128, topo.IPSC860())
	var deliveredAt sim.Time
	n.Send(0, 5, 1000, func() { deliveredAt = k.Now() })
	k.Run()
	if deliveredAt != n.Latency(0, 5, 1000) {
		t.Fatalf("delivered at %v, want %v", deliveredAt, n.Latency(0, 5, 1000))
	}
	if n.Delivered() != 1 || n.BytesSent() != 1000 {
		t.Fatalf("counters: delivered=%d bytes=%d", n.Delivered(), n.BytesSent())
	}
}

func TestAttachmentExtraHop(t *testing.T) {
	cfg := roundConfig()
	n := topo.New(sim.New(), 128, cfg)
	att := n.Attach(3)
	if att.Host() != 3 {
		t.Fatalf("host = %d", att.Host())
	}
	// The peripheral link is one class-less hop past the host.
	if got, want := att.LatencyFrom(0, 500), n.Latency(0, 3, 500)+cfg.PerHop; got != want {
		t.Fatalf("peripheral latency %v, want %v", got, want)
	}
}

func TestAttachmentSendBothWays(t *testing.T) {
	k := sim.New()
	n := topo.New(k, 128, topo.IPSC860())
	att := n.Attach(9)
	var at []sim.Time
	att.SendTo(4, 100, func() { at = append(at, k.Now()) })
	att.SendFrom(4, 100, func() { at = append(at, k.Now()) })
	k.Run()
	// Both directions cross the same path, so both land together.
	if lat := att.LatencyFrom(4, 100); len(at) != 2 || at[0] != lat || at[1] != lat {
		t.Fatalf("delivered at %v, want twice at %v", at, lat)
	}
}
