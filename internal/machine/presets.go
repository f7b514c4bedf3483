package machine

import (
	"fmt"
	"strings"

	"repro/internal/cfs"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// The machine presets: stable names a scenario spec can use to pick a
// machine configuration. "nas" is the paper's facility; the others
// widen the scenario space beyond it. The presets are one fixed table,
// as the topology kinds, named drives and fault presets are, so a new
// machine is a builder and one table row.
//
// A preset's Seed field is zero; whoever runs a study stamps the
// study seed onto it (core.RunStudy does this for every machine
// override), so one preset serves every seed in a sweep.

// MiniConfig returns a non-NAS preset: a 32-node development cube
// with 4 I/O nodes, the kind of small iPSC/860 installation other
// CFS sites ran. Same per-node hardware as NAS (same disks, links,
// clocks, 4 KB blocks and trace buffers) but a quarter of the compute
// nodes and under half the I/O nodes, so the compute-to-I/O balance
// -- and with it the cache and queueing behaviour -- differs.
func MiniConfig(seed uint64) Config {
	net := topo.IPSC860()
	net.Dim = 5 // 32 nodes
	fs := cfs.DefaultConfig()
	fs.IONodes = 4
	return Config{
		ComputeNodes:     32,
		Net:              net,
		FS:               fs,
		ServiceHost:      0,
		TraceBufferBytes: trace.DefaultBufferBytes,
		MaxClockOffset:   100 * sim.Millisecond,
		MaxClockDriftPPM: 100,
		Seed:             seed,
	}
}

// Cluster2026Config returns a modern-cluster preset: 256 nodes on a
// two-level fat tree with 100 Gb/s edge links and a 2:1 oversubscribed
// spine, 16 I/O nodes with NVMe-class drives, and NTP-grade clocks
// (millisecond offset, single-digit-ppm drift). Against the NAS
// machine it inverts every hardware ratio the paper's analysis leans
// on -- the network is no longer the cheap part, the disk no longer
// the expensive one -- which is exactly what makes it a useful
// scenario axis (see PERFORMANCE.md on where the bottleneck moves).
func Cluster2026Config(seed uint64) Config {
	fs := cfs.DefaultConfig()
	fs.IONodes = 16
	fs.IONode = cfs.IONodeConfig{
		Disk:         disk.NVMe(),
		CacheBuffers: 4096, // 16 MB of 4 KB buffers
		Overhead:     10 * sim.Microsecond,
		CacheHitTime: 1 * sim.Microsecond,
	}
	return Config{
		ComputeNodes: 256,
		Net: topo.Config{
			Kind:                "fattree",
			Startup:             2 * sim.Microsecond,
			PerHop:              1 * sim.Microsecond,
			PerPacket:           1 * sim.Microsecond,
			PacketBytes:         4096,
			BytesPerSecond:      12.5e9, // 100 Gb/s edge links
			SpineBytesPerSecond: 6.25e9, // 2:1 oversubscription
		},
		FS:               fs,
		ServiceHost:      0,
		TraceBufferBytes: trace.DefaultBufferBytes,
		MaxClockOffset:   1 * sim.Millisecond,
		MaxClockDriftPPM: 5,
		Seed:             seed,
	}
}

// presets lists every machine preset in the stable order PresetNames
// reports.
var presets = [...]struct {
	name  string
	build func(seed uint64) Config
}{
	{"nas", NASConfig},
	{"mini", MiniConfig},
	{"cluster2026", Cluster2026Config},
}

// PresetNames returns the machine-preset names, in stable order.
func PresetNames() []string {
	out := make([]string, len(presets))
	for i, e := range presets {
		out[i] = e.name
	}
	return out
}

// Preset resolves a preset name (case-insensitive) to its machine
// configuration, with a zero seed for the caller to stamp.
func Preset(name string) (Config, error) {
	key := strings.ToLower(name)
	for _, e := range presets {
		if e.name == key {
			return e.build(0), nil
		}
	}
	return Config{}, fmt.Errorf("machine: unknown preset %q (known: %s)",
		name, strings.Join(PresetNames(), ", "))
}
