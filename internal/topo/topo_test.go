package topo_test

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topo"
)

// kinds lists every topology; the shared tests run each one
// on 32 nodes.
var kinds = []string{"hypercube", "mesh", "fattree"}

// testConfig returns interconnect parameters with round numbers: 4 KB
// packets at 4.096 GB/s make a one-packet transfer exactly 1 us, so
// expected latencies are exact integers. Dim sizes the hypercube to 32
// nodes; the other topologies ignore it.
func testConfig(kind string) topo.Config {
	return topo.Config{
		Kind:           kind,
		Dim:            5,
		Startup:        20 * sim.Microsecond,
		PerHop:         10 * sim.Microsecond,
		PerPacket:      5 * sim.Microsecond,
		PacketBytes:    4096,
		BytesPerSecond: 4.096e9,
	}
}

func TestRegistry(t *testing.T) {
	names := topo.Names()
	for _, want := range kinds {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry %v missing %q", names, want)
		}
	}
	if kind, err := topo.Resolve(""); err != nil || kind != "hypercube" {
		t.Fatalf(`Resolve("") = %q, %v`, kind, err)
	}
	if kind, err := topo.Resolve("MESH"); err != nil || kind != "mesh" {
		t.Fatalf(`Resolve("MESH") = %q, %v`, kind, err)
	}
	if _, err := topo.Resolve("torus"); err == nil || !strings.Contains(err.Error(), "mesh") {
		t.Fatalf("unknown topology error %v should list the known names", err)
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestHypercubeRegistered(t *testing.T) {
	cfg := topo.IPSC860()
	n := topo.New(sim.New(), 128, cfg)
	if n.Nodes() != 128 || n.LinkClasses() != 7 {
		t.Fatalf("nodes=%d classes=%d", n.Nodes(), n.LinkClasses())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("node count disagreeing with the cube dimension did not panic")
		}
	}()
	topo.New(sim.New(), 64, cfg)
}

func TestMeshLatency(t *testing.T) {
	cfg := testConfig("mesh")
	// 32 nodes -> 8x4 grid, row-major.
	m := topo.New(sim.New(), 32, cfg)
	if m.LinkClasses() != 2 {
		t.Fatalf("classes=%d", m.LinkClasses())
	}
	// Zero-byte message to self: software cost only (one minimum
	// packet, no hops, no transfer).
	if got, want := m.Latency(0, 0, 0), cfg.Startup+cfg.PerPacket; got != want {
		t.Fatalf("self latency %v, want %v", got, want)
	}
	// Node 9 sits at (x=1, y=1): 2 hops. One 4096-byte packet is
	// exactly 1 us of transfer.
	want := cfg.Startup + cfg.PerPacket + 2*cfg.PerHop + 1*sim.Microsecond
	if got := m.Latency(0, 9, 4096); got != want {
		t.Fatalf("Latency(0,9) = %v, want %v", got, want)
	}
	// XY routing distance: the far corner (x=7, y=3) is 10 hops out.
	if got, want := m.Latency(0, 31, 0)-m.Latency(0, 0, 0), 10*cfg.PerHop; got != want {
		t.Fatalf("corner hop cost %v, want %v", got, want)
	}
	// Symmetric routes.
	if m.Latency(3, 28, 4096) != m.Latency(28, 3, 4096) {
		t.Fatal("mesh latency not symmetric")
	}
	// A peripheral attachment adds one class-less hop.
	att := m.Attach(9)
	if att.Host() != 9 {
		t.Fatalf("Host() = %d", att.Host())
	}
	if got, want := att.LatencyFrom(0, 4096), m.Latency(0, 9, 4096)+cfg.PerHop; got != want {
		t.Fatalf("peripheral latency %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two mesh did not panic")
		}
	}()
	topo.New(sim.New(), 24, cfg)
}

func TestFattreeLatency(t *testing.T) {
	cfg := testConfig("fattree")
	cfg.SpineBytesPerSecond = 2.048e9 // spine transfer: 2 us per packet
	f := topo.New(sim.New(), 64, cfg) // 4 pods of 16
	if f.LinkClasses() != 2 {
		t.Fatalf("classes=%d", f.LinkClasses())
	}
	software := cfg.Startup + cfg.PerPacket
	// In-pod: 2 edge hops, edge bandwidth -- and distance-independent.
	inPod := software + 2*cfg.PerHop + 1*sim.Microsecond
	if got := f.Latency(0, 1, 4096); got != inPod {
		t.Fatalf("in-pod latency %v, want %v", got, inPod)
	}
	if f.Latency(0, 15, 4096) != inPod {
		t.Fatal("in-pod latency depends on distance")
	}
	// Cross-pod: 2 edge + 2 spine hops at the slower spine tier -- and
	// equally distance-independent.
	crossPod := software + 4*cfg.PerHop + 2*sim.Microsecond
	if got := f.Latency(0, 16, 4096); got != crossPod {
		t.Fatalf("cross-pod latency %v, want %v", got, crossPod)
	}
	if f.Latency(0, 63, 4096) != crossPod {
		t.Fatal("cross-pod latency depends on distance")
	}
	// Zero spine bandwidth means "same as edge"; a faster spine never
	// shows because the transfer pays the slowest tier on the path.
	for _, spine := range []float64{0, 1e12} {
		cfg := testConfig("fattree")
		cfg.SpineBytesPerSecond = spine
		f := topo.New(sim.New(), 64, cfg)
		if got, want := f.Latency(0, 16, 4096), software+4*cfg.PerHop+1*sim.Microsecond; got != want {
			t.Fatalf("spine=%g: cross-pod latency %v, want %v", spine, got, want)
		}
	}
}

// TestSendCounters checks that node-to-node messages and peripheral
// messages both ways land exactly their modeled latency after the send,
// and that the traffic counters count them.
func TestSendCounters(t *testing.T) {
	for _, kind := range kinds {
		k := sim.New()
		n := topo.New(k, 32, testConfig(kind))
		att := n.Attach(3)
		var at [3]sim.Time
		n.Send(0, 9, 4096, func() { at[0] = k.Now() })
		att.SendTo(0, 100, func() { at[1] = k.Now() })
		att.SendFrom(5, 100, func() { at[2] = k.Now() })
		k.Run()
		// Every message lands exactly its modeled latency after the send.
		if want := [3]sim.Time{n.Latency(0, 9, 4096), att.LatencyFrom(0, 100), att.LatencyFrom(5, 100)}; at != want {
			t.Fatalf("%s: delivered at %v, want %v", kind, at, want)
		}
		if n.Delivered() != 3 {
			t.Fatalf("%s: delivered counter %d", kind, n.Delivered())
		}
		if n.BytesSent() != 4096+200 {
			t.Fatalf("%s: bytesSent %d", kind, n.BytesSent())
		}
	}
}

func TestBadConfigPanics(t *testing.T) {
	type badConfig struct {
		kind, what string
		nodes      int
		edit       func(*topo.Config)
	}
	cases := []badConfig{
		{"hypercube", "negative dimension", 32, func(c *topo.Config) { c.Dim = -1 }},
		{"fattree", "negative spine bandwidth", 32, func(c *topo.Config) { c.SpineBytesPerSecond = -1 }},
		{"fattree", "no nodes", 0, func(*topo.Config) {}},
	}
	for _, kind := range kinds {
		cases = append(cases,
			badConfig{kind, "zero packet size", 32, func(c *topo.Config) { c.PacketBytes = 0 }},
			badConfig{kind, "zero bandwidth", 32, func(c *topo.Config) { c.BytesPerSecond = 0 }})
	}
	for _, tc := range cases {
		cfg := testConfig(tc.kind)
		tc.edit(&cfg)
		mustPanic(t, tc.kind+" with "+tc.what, func() { topo.New(sim.New(), tc.nodes, cfg) })
	}
}

func TestSendOutOfRangePanics(t *testing.T) {
	for _, kind := range kinds {
		n := topo.New(sim.New(), 32, testConfig(kind))
		mustPanic(t, kind+" send to node 32", func() { n.Send(0, 32, 10, func() {}) })
		mustPanic(t, kind+" attach at node -1", func() { n.Attach(-1) })
		att := n.Attach(3)
		mustPanic(t, kind+" peripheral send from node 32", func() { att.SendTo(32, 10, func() {}) })
	}
}

func TestNegativeSizePanics(t *testing.T) {
	for _, kind := range kinds {
		n := topo.New(sim.New(), 32, testConfig(kind))
		mustPanic(t, kind+" negative size", func() { n.Latency(0, 1, -1) })
	}
}

// Property: latency is monotone in message size on every topology.
func TestQuickLatencyMonotoneInSize(t *testing.T) {
	for _, kind := range kinds {
		n := topo.New(sim.New(), 32, testConfig(kind))
		f := func(s1, s2 uint32) bool {
			a, b := int(s1%(1<<22)), int(s2%(1<<22))
			if a > b {
				a, b = b, a
			}
			return n.Latency(0, 17, a) <= n.Latency(0, 17, b)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

// hopCost is the hop part of a healthy zero-byte message's latency:
// what it pays beyond the software cost a message to self pays.
func hopCost(n *topo.Network, a, b int) sim.Time {
	return n.Latency(a, b, 0) - n.Latency(a, a, 0)
}

// Property: on every topology the hop cost is symmetric and zero
// exactly when the endpoints are equal.
func TestQuickHopsMetric(t *testing.T) {
	for _, kind := range kinds {
		n := topo.New(sim.New(), 32, testConfig(kind))
		f := func(aRaw, bRaw uint8) bool {
			a, b := int(aRaw%32), int(bRaw%32)
			return hopCost(n, a, b) == hopCost(n, b, a) && (hopCost(n, a, b) == 0) == (a == b)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

// Property: the hop cost obeys the triangle inequality on every
// topology.
func TestQuickHopsTriangle(t *testing.T) {
	for _, kind := range kinds {
		n := topo.New(sim.New(), 32, testConfig(kind))
		f := func(aRaw, bRaw, cRaw uint8) bool {
			a, b, c := int(aRaw%32), int(bRaw%32), int(cRaw%32)
			return hopCost(n, a, c) <= hopCost(n, a, b)+hopCost(n, b, c)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

// classHops is one Degrader.HopCost call: a link class and the number
// of its links a message crosses.
type classHops struct{ class, hops int }

// orderedDegrader records the call protocol topologies owe a
// topo.Degrader: HopCost once per crossed link class, then Message
// exactly once. It changes no latency.
type orderedDegrader struct {
	calls []classHops
	base  sim.Time
	msgs  int
}

func (d *orderedDegrader) HopCost(class, hops int, perHop sim.Time) sim.Time {
	d.calls = append(d.calls, classHops{class, hops})
	return sim.Time(hops) * perHop
}

func (d *orderedDegrader) Message(base, transfer sim.Time) sim.Time {
	d.msgs++
	d.base = base
	return base + transfer
}

func TestDegraderProtocol(t *testing.T) {
	for _, tc := range []struct {
		kind     string
		src, dst int
		calls    []classHops // HopCost calls, in order
	}{
		// Mesh (8x4, row-major): XY routing crosses its x links, then
		// its y links; a straight line touches only the axis it uses.
		{"mesh", 0, 9, []classHops{{0, 1}, {1, 1}}},
		{"mesh", 0, 7, []classHops{{0, 7}}},
		{"mesh", 0, 24, []classHops{{1, 3}}},
		// Hypercube: one call per crossed dimension, lowest first.
		{"hypercube", 0, 13, []classHops{{0, 1}, {2, 1}, {3, 1}}},
		{"hypercube", 31, 16, []classHops{{0, 1}, {1, 1}, {2, 1}, {3, 1}}},
		{"hypercube", 5, 5, nil},
		// Fat tree (pods of 16): two edge links within a pod, then two
		// spine links across pods.
		{"fattree", 0, 15, []classHops{{0, 2}}},
		{"fattree", 0, 16, []classHops{{0, 2}, {1, 2}}},
	} {
		cfg := testConfig(tc.kind)
		healthy := topo.New(sim.New(), 32, cfg)
		n := topo.New(sim.New(), 32, cfg)
		deg := &orderedDegrader{}
		n.SetDegrader(deg)
		hops := 0
		for _, c := range tc.calls {
			hops += c.hops
		}
		wantBase := cfg.Startup + cfg.PerPacket + sim.Time(hops)*cfg.PerHop
		// A peripheral attachment adds one class-less hop to the base.
		for extra, lat := range []func(*topo.Network) sim.Time{
			func(n *topo.Network) sim.Time { return n.Latency(tc.src, tc.dst, 4096) },
			func(n *topo.Network) sim.Time { return n.Attach(tc.dst).LatencyFrom(tc.src, 4096) },
		} {
			deg.calls, deg.msgs = nil, 0
			if got, want := lat(n), lat(healthy); got != want {
				t.Fatalf("%s %d->%d: identity degrader changed latency: %v != %v", tc.kind, tc.src, tc.dst, got, want)
			}
			if !reflect.DeepEqual(deg.calls, tc.calls) || deg.msgs != 1 {
				t.Fatalf("%s %d->%d: HopCost calls %v, %d messages; want %v, 1 message",
					tc.kind, tc.src, tc.dst, deg.calls, deg.msgs, tc.calls)
			}
			if want := wantBase + sim.Time(extra)*cfg.PerHop; deg.base != want {
				t.Fatalf("%s %d->%d: Message base %v, want software+hops %v", tc.kind, tc.src, tc.dst, deg.base, want)
			}
		}
	}
}
