package machine

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// TestPresetRegistry checks every preset resolves to a
// buildable configuration whose shape is self-consistent.
func TestPresetRegistry(t *testing.T) {
	names := PresetNames()
	if len(names) < 2 {
		t.Fatalf("preset registry too small: %v", names)
	}
	for _, name := range names {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		// Only the hypercube takes its shape from Net.Dim; other
		// topologies size themselves from the node count.
		if kind, err := topo.Resolve(cfg.Net.Kind); err != nil {
			t.Fatalf("%s: topology: %v", name, err)
		} else if kind == "hypercube" && cfg.ComputeNodes != 1<<cfg.Net.Dim {
			t.Fatalf("%s: %d compute nodes but network dimension %d", name, cfg.ComputeNodes, cfg.Net.Dim)
		}
		if cfg.FS.IONodes <= 0 || cfg.FS.BlockBytes <= 0 || cfg.TraceBufferBytes <= 0 {
			t.Fatalf("%s: degenerate FS config %+v", name, cfg.FS)
		}
		// The preset must actually build a machine.
		k := sim.New()
		m := New(k, cfg)
		if m.ComputeNodes() != cfg.ComputeNodes {
			t.Fatalf("%s: machine reports %d nodes, config %d", name, m.ComputeNodes(), cfg.ComputeNodes)
		}
	}
	if _, err := Preset("cm5"); err == nil {
		t.Fatal("unknown preset resolved")
	}
	// Case-insensitive.
	if _, err := Preset("NAS"); err != nil {
		t.Fatalf("Preset is case-sensitive: %v", err)
	}
}

// TestMiniPresetIsNonNAS pins the scenario axis: the mini preset must
// differ from NAS in machine shape, not just in name.
func TestMiniPresetIsNonNAS(t *testing.T) {
	nas, mini := NASConfig(0), MiniConfig(0)
	if mini.ComputeNodes >= nas.ComputeNodes {
		t.Fatalf("mini has %d compute nodes, NAS %d", mini.ComputeNodes, nas.ComputeNodes)
	}
	if mini.FS.IONodes >= nas.FS.IONodes {
		t.Fatalf("mini has %d I/O nodes, NAS %d", mini.FS.IONodes, nas.FS.IONodes)
	}
	if mini.FS.BlockBytes != nas.FS.BlockBytes {
		t.Fatal("presets should share the CFS block size")
	}
}

// TestMiniPresetRunsJobs submits jobs bigger than the mini cube to a
// mini machine after generator-side clamping would have reduced them;
// here we just pin that the machine rejects oversized jobs (the
// clamp's reason to exist).
func TestMiniPresetRunsJobs(t *testing.T) {
	k := sim.New()
	m := New(k, MiniConfig(7))
	defer func() {
		if recover() == nil {
			t.Fatal("128-node job on a 32-node machine did not panic")
		}
	}()
	m.Submit(JobSpec{Nodes: 128, Traced: false})
}
