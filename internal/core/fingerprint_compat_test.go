package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/scenario"
)

// TestFingerprintCompatibility pins the store fingerprints of the
// pre-registry configurations (captured at the commit before the
// topology/disk model extraction) and of scenario studies, whose salt
// carries the resolved cache plan. A change here orphans every run
// store written by earlier builds, so it must be deliberate, not a
// side effect of reshaping machine.Config, faults.Config or the plan's
// salt.
func TestFingerprintCompatibility(t *testing.T) {
	nas := StudySpec{Label: "seed=42 scale=0.01", Config: Config{Seed: 42, Scale: 0.01}}
	if got, want := SpecFingerprint("", nas), "9a8e384ac3bc8847e998de6ab091edff"; got != want {
		t.Errorf("nas fingerprint = %s, want %s", got, want)
	}

	mc := machine.MiniConfig(42)
	mini := StudySpec{Label: "seed=42 scale=0.01 mc=mini", Config: Config{Seed: 42, Scale: 0.01, Machine: &mc}}
	if got, want := SpecFingerprint("", mini), "cf189a147f67e3f37482c62269cd3621"; got != want {
		t.Errorf("mini fingerprint = %s, want %s", got, want)
	}

	fc := faults.Config{Windows: []faults.Window{{Node: 3, StartHours: 0, EndHours: 1, Slowdown: 4}}}
	faulted := StudySpec{Label: "seed=42 scale=0.01", Config: Config{Seed: 42, Scale: 0.01, Faults: &fc}}
	if got, want := SpecFingerprint("", faulted), "c1144ac215a83f6d758fe69400030624"; got != want {
		t.Errorf("faulted fingerprint = %s, want %s", got, want)
	}

	// Scenario studies, keyed as `-scenario -out` and serve jobs key
	// them: a plan-less spec under the "plan:none" salt, and one whose
	// plan runs all three cache experiments.
	scenarios := []struct{ name, json, want string }{
		{"plan-less", `{"version": 1, "name": "pinned", "seeds": [42], "scales": [0.01]}`,
			"f47553ed4d9912182468833f870ab63d"},
		{"fig8+fig9+combined", `{"version": 1, "name": "pinned", "seeds": [42], "scales": [0.01],
			"cache": {"fig8": {"buffers": [1, 10]},
				"fig9": {"policies": ["lru", "fifo"], "ioNodes": [10], "buffers": [1000, 4000]},
				"combined": {"ioNodes": 10, "buffersPerIONode": 50}}}`,
			"c9a6a668d2a7f2fd4ae59104f8f23444"},
	}
	for _, sc := range scenarios {
		spec, err := scenario.Parse([]byte(sc.json))
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		_, keys, err := scenarioStoreKeys(spec, StoreConfig{Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if got := keys.fps[0]; len(keys.fps) != 1 || got != sc.want {
			t.Errorf("%s scenario fingerprints = %v, want [%s]", sc.name, keys.fps, sc.want)
		}
	}
}
