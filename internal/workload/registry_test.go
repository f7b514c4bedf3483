package workload

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// TestRegistryCoversEveryJobField pins the registry against Params by
// reflection: every "*Jobs" field of Params must be reachable through
// exactly one archetype entry, so a new archetype cannot be added to
// Params without also being named in the registry.
func TestRegistryCoversEveryJobField(t *testing.T) {
	typ := reflect.TypeOf(Params{})
	var jobFields []string
	for i := 0; i < typ.NumField(); i++ {
		if strings.HasSuffix(typ.Field(i).Name, "Jobs") {
			jobFields = append(jobFields, typ.Field(i).Name)
		}
	}
	if len(jobFields) != len(registry) {
		t.Fatalf("Params has %d job fields but the registry has %d entries: %v",
			len(jobFields), len(registry), jobFields)
	}
	// Each registry entry must control a distinct field: set a sentinel
	// through the registry and find which field changed.
	seen := make(map[string]string) // field -> archetype name
	for _, a := range registry {
		var p Params
		a.SetCount(&p, 7777)
		val := reflect.ValueOf(p)
		found := ""
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).Type.Kind() == reflect.Int && val.Field(i).Int() == 7777 {
				found = typ.Field(i).Name
				break
			}
		}
		if found == "" {
			t.Fatalf("archetype %q sets no Params field", a.Name)
		}
		if prev, dup := seen[found]; dup {
			t.Fatalf("archetypes %q and %q both set Params.%s", prev, a.Name, found)
		}
		seen[found] = a.Name
		if got := a.Count(&p); got != 7777 {
			t.Fatalf("archetype %q: Count reads %d after SetCount(7777)", a.Name, got)
		}
	}
}

func TestRegistryLookupAndSetters(t *testing.T) {
	names := ArchetypeNames()
	if len(names) != len(registry) {
		t.Fatalf("%d names, %d entries", len(names), len(registry))
	}
	for _, name := range names {
		a, err := LookupArchetype(name)
		if err != nil || a.Name != name {
			t.Fatalf("LookupArchetype(%q) = %+v, %v", name, a, err)
		}
		if a.Doc == "" {
			t.Fatalf("archetype %q has no doc line", name)
		}
		// Case-insensitive.
		if _, err := LookupArchetype(strings.ToUpper(name)); err != nil {
			t.Fatalf("LookupArchetype is case-sensitive for %q: %v", name, err)
		}
	}
	if _, err := LookupArchetype("matrix-multiply"); err == nil {
		t.Fatal("unknown archetype resolved")
	}

	p := Default(1)
	if err := SetJobs(&p, "cfd-sim", 3); err != nil || p.CFDSimJobs != 3 {
		t.Fatalf("SetJobs failed: %v (CFDSimJobs=%d)", err, p.CFDSimJobs)
	}
	if n, err := Jobs(&p, "cfd-sim"); err != nil || n != 3 {
		t.Fatalf("Jobs = %d, %v", n, err)
	}
	if err := SetJobs(&p, "cfd-sim", -1); err == nil {
		t.Fatal("negative count accepted")
	}
	if err := SetJobs(&p, "nope", 1); err == nil {
		t.Fatal("unknown archetype accepted")
	}
	if _, err := Jobs(&p, "nope"); err == nil {
		t.Fatal("unknown archetype read")
	}
}

func TestEmptyKeepsPoolsZerosJobs(t *testing.T) {
	p := Empty(42)
	if TotalJobs(&p) != 0 {
		t.Fatalf("Empty has %d jobs", TotalJobs(&p))
	}
	def := Default(42)
	if p.SharedMeshFiles != def.SharedMeshFiles || p.SharedFieldFiles != def.SharedFieldFiles {
		t.Fatal("Empty zeroed the shared input pools")
	}
	if p.HorizonHours != def.HorizonHours || p.Seed != 42 {
		t.Fatalf("Empty changed horizon/seed: %+v", p)
	}
	if TotalJobs(&def) == 0 {
		t.Fatal("calibrated default has no jobs?")
	}
}

// TestInstallPerArchetype installs each registry row alone -- an Empty
// mix holding only that archetype at its calibrated count, plus the
// shared input pools Empty keeps -- and requires exactly the scaled
// count of jobs, each with the archetype's tracing flag. The
// calibrated mix installs the sum of every row's scaled count.
func TestInstallPerArchetype(t *testing.T) {
	const seed, scale = 3, 0.01
	untraced := map[string]bool{"status-check": true, "system-util": true, "untraced-parallel": true}
	install := func(p Params) []machine.JobRecord {
		k := sim.New()
		m := machine.NewUntraced(k, machine.NASConfig(seed))
		NewGenerator(p).Install(m)
		k.Run()
		return m.JobRecords()
	}
	def := Default(seed)
	total := 0
	for _, a := range registry {
		p := Empty(seed)
		p.Scale = scale
		a.SetCount(&p, a.Count(&def))
		want := scaled(a.Count(&def), scale)
		total += want
		jobs := install(p)
		if len(jobs) != want {
			t.Errorf("%s: installed %d jobs, want %d", a.Name, len(jobs), want)
		}
		for _, j := range jobs {
			if j.Traced == untraced[a.Name] {
				t.Errorf("%s: job %d traced = %v", a.Name, j.ID, j.Traced)
				break
			}
		}
	}
	def.Scale = scale
	if got := len(install(def)); got != total {
		t.Errorf("calibrated mix installed %d jobs, want %d", got, total)
	}
}
