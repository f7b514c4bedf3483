package cachesim_test

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// The tests below hold the one-pass sweeps to the per-configuration
// reference simulations in reference_test.go: every IONodeResult field,
// every JobHitRate and every CombinedResult must be equal. They go
// through core's entry points as well, so Fig9Sweep's clamp of small
// buffer counts and its split of a ladder across GOMAXPROCS chunks are
// covered; CI runs them at -cpu 1,4.

// checkAgainstReference compares every sweep on one event slice.
// ladder is a raw Fig9Sweep ladder (unsorted, duplicates, counts below
// ioNodes allowed); fig8 lists compute-node cache sizes.
func checkAgainstReference(t *testing.T, events []trace.Event, blockBytes int64, ioNodes int, ladder, fig8 []int) {
	t.Helper()
	clamped := make([]int, len(ladder))
	for i, b := range ladder {
		clamped[i] = max(b, ioNodes)
	}
	for _, p := range cachesim.AllPolicies() {
		want := make([]cachesim.IONodeResult, len(clamped))
		for i, b := range clamped {
			want[i] = cachesim.ReferenceIONodeCache(events, blockBytes, ioNodes, b, p)
		}
		if got := core.Fig9Sweep(events, blockBytes, ioNodes, p, ladder); !slices.Equal(got, want) {
			t.Fatalf("%s, %d I/O nodes, ladder %v: Fig9Sweep\n got %+v\nwant %+v", p, ioNodes, ladder, got, want)
		}
		if got := cachesim.IONodeSweep(events, blockBytes, ioNodes, clamped, p); !slices.Equal(got, want) {
			t.Fatalf("%s, %d I/O nodes, totals %v: IONodeSweep\n got %+v\nwant %+v", p, ioNodes, clamped, got, want)
		}
		if got := cachesim.IONodeCache(events, blockBytes, ioNodes, clamped[0], p); got != want[0] {
			t.Fatalf("%s, %d I/O nodes, %d buffers: IONodeCache %+v, want %+v", p, ioNodes, clamped[0], got, want[0])
		}
		for _, per := range []int{1, 3, 50} {
			got := cachesim.CombinedPolicy(events, blockBytes, ioNodes, per, p)
			if want := cachesim.ReferenceCombinedPolicy(events, blockBytes, ioNodes, per, p); got != want {
				t.Fatalf("%s, %d I/O nodes x %d buffers: CombinedPolicy\n got %+v\nwant %+v", p, ioNodes, per, got, want)
			}
		}
	}
	sweep := cachesim.ComputeNodeSweep(events, blockBytes, fig8)
	results := core.RunFig8Buffers(events, blockBytes, fig8)
	for i, b := range fig8 {
		want := cachesim.ReferenceComputeNodeCache(events, blockBytes, b)
		if !slices.Equal(sweep[i], want) {
			t.Fatalf("%d compute-node buffers: ComputeNodeSweep\n got %+v\nwant %+v", b, sweep[i], want)
		}
		if results[i].Buffers != b || !slices.Equal(results[i].Jobs, want) {
			t.Fatalf("%d compute-node buffers: RunFig8Buffers\n got %+v\nwant %+v", b, results[i], want)
		}
	}
	if got, want := cachesim.ComputeNodeCache(events, blockBytes, fig8[0]), cachesim.ReferenceComputeNodeCache(events, blockBytes, fig8[0]); !slices.Equal(got, want) {
		t.Fatalf("%d compute-node buffers: ComputeNodeCache\n got %+v\nwant %+v", fig8[0], got, want)
	}
}

// distinctBlocks counts the distinct blocks the data events touch.
func distinctBlocks(events []trace.Event, blockBytes int64) int {
	seen := make(map[cache.BlockID]bool)
	for i := range events {
		ev := &events[i]
		if !ev.IsData() {
			continue
		}
		ev.Records(func(off, size int64) {
			for b := off / blockBytes; size > 0 && b <= (off+size-1)/blockBytes; b++ {
				seen[cache.BlockID{File: ev.File, Block: b}] = true
			}
		})
	}
	return len(seen)
}

func TestSweepsMatchReferenceSmokeTrace(t *testing.T) {
	rd, err := trace.OpenReader("../../testdata/traces/smoke.trc")
	if err != nil {
		t.Fatal(err)
	}
	events, err := rd.AllEvents()
	rd.Close()
	if err != nil {
		t.Fatal(err)
	}
	blockBytes := rd.Header().BlockSize()
	ioNodes := int(rd.Header().IONodes)
	huge := (distinctBlocks(events, blockBytes) + 1) * ioNodes
	ladder := append(core.DefaultFig9Buffers(), huge, 1, 4000)
	checkAgainstReference(t, events, blockBytes, ioNodes, ladder, []int{1, 10, 50, 2, huge})
}

// TestSweepsMatchReferenceCorpusStudies runs one traced scale-0.01
// study of every workload mix the scenario corpus declares.
func TestSweepsMatchReferenceCorpusStudies(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus scenarios: %v", err)
	}
	mixes := make(map[string]scenario.ResolvedMix)
	var names []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, m := range spec.MixList() {
			if _, ok := mixes[m.Name]; !ok {
				mixes[m.Name] = m
				names = append(names, m.Name)
			}
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			r := core.RunStudy(core.Config{Seed: 7, Scale: 0.01, Workload: mixes[name].Params})
			huge := (distinctBlocks(r.Events, r.BlockBytes()) + 1) * 10
			ladder := []int{25000, 0, 400, 1, 400, 10, 3000, huge, 11, 1000}
			checkAgainstReference(t, r.Events, r.BlockBytes(), 10, ladder, []int{50, 1, 10, 50, huge})
		})
	}
}

// randomEvents returns a repeat-heavy random trace: plain and strided
// reads and writes (strided records may overlap, or coincide at stride
// 0), a few non-data events, and files of which some are only read.
func randomEvents(rng *rand.Rand, n int) []trace.Event {
	const bs = 4096
	events := make([]trace.Event, 0, n)
	var prev trace.Event
	for len(events) < n {
		ev := prev
		if len(events) == 0 || rng.IntN(3) == 0 {
			ev = trace.Event{
				Job:    uint32(rng.IntN(5)),
				Node:   uint16(rng.IntN(6)),
				File:   uint64(rng.IntN(10)),
				Offset: int64(rng.IntN(48 * bs)),
			}
		} else {
			ev.Offset += int64(rng.IntN(bs))
		}
		ev.Size = int64(rng.IntN(3 * bs))
		ev.Stride, ev.Count = 0, 0
		switch r := rng.IntN(20); {
		case r == 0:
			ev.Type = trace.EvOpen
		case r < 3 && ev.File >= 5: // files 0-4 are never written
			ev.Type = trace.EvWrite
		case r == 3 && ev.File >= 5:
			ev.Type = trace.EvWriteStrided
		case r < 7:
			ev.Type = trace.EvReadStrided
		default:
			ev.Type = trace.EvRead
		}
		if ev.IsStrided() {
			ev.Stride = int64(rng.IntN(2 * bs))
			ev.Count = uint32(1 + rng.IntN(5))
		}
		events = append(events, ev)
		prev = ev
	}
	return events
}

func TestSweepsMatchReferenceRandomTraces(t *testing.T) {
	rng := rand.New(rand.NewPCG(2026, 16))
	for trial := 0; trial < 24; trial++ {
		ioNodes := 1 + rng.IntN(16)
		events := randomEvents(rng, 400+rng.IntN(1600))
		huge := (distinctBlocks(events, 4096) + 1) * ioNodes
		ladder := []int{huge, 0, 1}
		for range 6 {
			ladder = append(ladder, rng.IntN(40*ioNodes))
		}
		ladder = append(ladder, ladder[3], ladder[5])
		rng.Shuffle(len(ladder), func(i, j int) { ladder[i], ladder[j] = ladder[j], ladder[i] })
		fig8 := []int{1 + rng.IntN(30), 1, huge, 1 + rng.IntN(5), 1}
		t.Run(fmt.Sprintf("trial%d/io%d", trial, ioNodes), func(t *testing.T) {
			checkAgainstReference(t, events, 4096, ioNodes, ladder, fig8)
		})
	}
}

// TestSweepsWithNoSizes: an empty ladder is an empty curve, as it was
// when each size ran its own simulation.
func TestSweepsWithNoSizes(t *testing.T) {
	events := randomEvents(rand.New(rand.NewPCG(1, 1)), 200)
	for _, p := range cachesim.AllPolicies() {
		if got := core.Fig9Sweep(events, 4096, 10, p, nil); len(got) != 0 {
			t.Fatalf("%s: Fig9Sweep with no sizes = %+v", p, got)
		}
		if got := cachesim.IONodeSweep(events, 4096, 0, nil, p); len(got) != 0 {
			t.Fatalf("%s: IONodeSweep with no sizes = %+v", p, got)
		}
	}
	if got := core.RunFig8Buffers(events, 4096, nil); len(got) != 0 {
		t.Fatalf("RunFig8Buffers with no sizes = %+v", got)
	}
}

// observer is the observe form every cachesim experiment has.
type observer interface{ Observe(*trace.Event) }

// feedInBatches hands events to every form a batch at a time, each
// form observing a whole batch before the next form starts, as a
// study's merge pass feeds a cache plan. Batches end at random points,
// so some hold one event and some none.
func feedInBatches(rng *rand.Rand, events []trace.Event, forms []observer) {
	for start := 0; start < len(events); {
		end := start
		switch rng.IntN(4) {
		case 0: // an empty batch
		case 1:
			end++
		default:
			end += rng.IntN(len(events)/8 + 2)
		}
		end = min(end, len(events))
		for _, f := range forms {
			for i := start; i < end; i++ {
				f.Observe(&events[i])
			}
		}
		start = end
	}
}

// checkFormsAgainstReference builds every observe form over the
// read-only set ro -- a ComputeNodeSim over fig8, an IONodeSim per
// policy over the clamped ladder, and a CombinedSim per policy and
// per-node size -- feeds them the events in random batches, and
// compares every result with the per-configuration reference
// simulations.
func checkFormsAgainstReference(t *testing.T, rng *rand.Rand, events []trace.Event, ro map[uint64]bool, blockBytes int64, ioNodes int, ladder, fig8 []int) {
	t.Helper()
	if want := cachesim.ReadOnlyFiles(events); !maps.Equal(ro, want) {
		t.Fatalf("read-only set has %d files, want %d", len(ro), len(want))
	}
	clamped := make([]int, len(ladder))
	for i, b := range ladder {
		clamped[i] = max(b, ioNodes)
	}
	perNode := []int{1, 3, 50}
	fig8Sim := cachesim.NewComputeNodeSim(ro, blockBytes, fig8)
	forms := []observer{fig8Sim}
	var ioSims []*cachesim.IONodeSim
	var combined []*cachesim.CombinedSim
	for _, p := range cachesim.AllPolicies() {
		ioSims = append(ioSims, cachesim.NewIONodeSim(blockBytes, ioNodes, clamped, p))
		forms = append(forms, ioSims[len(ioSims)-1])
		for _, per := range perNode {
			combined = append(combined, cachesim.NewCombinedSim(ro, blockBytes, ioNodes, per, p))
			forms = append(forms, combined[len(combined)-1])
		}
	}
	rng.Shuffle(len(forms), func(i, j int) { forms[i], forms[j] = forms[j], forms[i] })
	feedInBatches(rng, events, forms)

	for pi, p := range cachesim.AllPolicies() {
		want := make([]cachesim.IONodeResult, len(clamped))
		for i, b := range clamped {
			want[i] = cachesim.ReferenceIONodeCache(events, blockBytes, ioNodes, b, p)
		}
		if got := ioSims[pi].Results(); !slices.Equal(got, want) {
			t.Fatalf("%s, %d I/O nodes, totals %v: IONodeSim\n got %+v\nwant %+v", p, ioNodes, clamped, got, want)
		}
		for ci, per := range perNode {
			got := combined[pi*len(perNode)+ci].Result()
			if want := cachesim.ReferenceCombinedPolicy(events, blockBytes, ioNodes, per, p); got != want {
				t.Fatalf("%s, %d I/O nodes x %d buffers: CombinedSim\n got %+v\nwant %+v", p, ioNodes, per, got, want)
			}
		}
	}
	results := fig8Sim.Results()
	for i, b := range fig8 {
		if want := cachesim.ReferenceComputeNodeCache(events, blockBytes, b); !slices.Equal(results[i], want) {
			t.Fatalf("%d compute-node buffers: ComputeNodeSim\n got %+v\nwant %+v", b, results[i], want)
		}
	}
}

// shuffledReadOnlySet takes the read-only set from the events in a
// random order: the set must not depend on it.
func shuffledReadOnlySet(rng *rand.Rand, events []trace.Event) map[uint64]bool {
	var s cachesim.ReadOnlySet
	for _, i := range rng.Perm(len(events)) {
		s.Observe(&events[i])
	}
	return s.Files()
}

// TestObserveFormsMatchReferenceInBatches holds the observe forms,
// fed in random batches as a study's merge pass feeds them, to the
// per-configuration reference simulations: on the smoke trace, with
// the read-only set taken from its raw blocks in arrival order; on one
// traced study of every corpus mix; and on random traces with strided,
// zero-count strided and zero-size requests.
func TestObserveFormsMatchReferenceInBatches(t *testing.T) {
	rng := rand.New(rand.NewPCG(2027, 27))
	t.Run("smoke", func(t *testing.T) {
		rd, err := trace.OpenReader("../../testdata/traces/smoke.trc")
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		events, err := rd.AllEvents()
		if err != nil {
			t.Fatal(err)
		}
		var ro cachesim.ReadOnlySet
		if err := rd.Blocks(ro.ObserveBlock); err != nil {
			t.Fatal(err)
		}
		ioNodes := int(rd.Header().IONodes)
		checkFormsAgainstReference(t, rng, events, ro.Files(), rd.Header().BlockSize(), ioNodes,
			[]int{125, 1, 4000, 25000, 4000}, []int{1, 10, 50})
	})
	for _, name := range []string{"read-mostly", "checkpoint-heavy", "strided"} {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("../../testdata/scenarios", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			spec, err := scenario.Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			r := core.RunStudy(core.Config{Seed: 11, Scale: 0.01, Workload: spec.MixList()[0].Params})
			checkFormsAgainstReference(t, rng, r.Events, shuffledReadOnlySet(rng, r.Events), r.BlockBytes(), 10,
				[]int{400, 10, 3000, 1000}, []int{50, 1, 10})
		})
	}
	for trial := 0; trial < 16; trial++ {
		ioNodes := 1 + rng.IntN(16)
		events := randomEvents(rng, 300+rng.IntN(1200))
		for i := range events {
			switch ev := &events[i]; {
			case rng.IntN(8) == 0:
				ev.Size = 0
			case ev.IsStrided() && rng.IntN(6) == 0:
				ev.Count = 0
			}
		}
		huge := (distinctBlocks(events, 4096) + 1) * ioNodes
		ladder := []int{huge, 1, rng.IntN(40 * ioNodes), rng.IntN(40 * ioNodes)}
		fig8 := []int{1 + rng.IntN(30), 1, huge}
		t.Run(fmt.Sprintf("trial%d/io%d", trial, ioNodes), func(t *testing.T) {
			checkFormsAgainstReference(t, rng, events, shuffledReadOnlySet(rng, events), 4096, ioNodes, ladder, fig8)
		})
	}
}
