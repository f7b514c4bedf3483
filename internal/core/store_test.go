package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

// storeOutcomeMtimes stats every committed outcome file in dir,
// keyed by file name.
func storeOutcomeMtimes(t *testing.T, dir string) map[string]time.Time {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]time.Time)
	for _, p := range paths {
		if filepath.Base(p) == "manifest.json" {
			continue
		}
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = fi.ModTime()
	}
	return out
}

// cancelAfterFirstRun returns a store config whose Progress callback
// cancels the returned context once the worker commits its first
// spec: run with Workers: 1, the worker stops between studies exactly
// as a process killed between commits would, leaving the directory
// half committed.
func cancelAfterFirstRun(dir, worker string) (context.Context, context.CancelFunc, StoreConfig) {
	ctx, cancel := context.WithCancel(context.Background())
	return ctx, cancel, StoreConfig{Dir: dir, WorkerID: worker, Progress: func(p StoreProgress) {
		if p.State == StoreSpecRan {
			cancel()
		}
	}}
}

// TestSweepStoreShardResumeIdentical is the store's acceptance pin: a
// sweep split across lease workers -- two of them cancelled after one
// commit each, then a third resuming the directory -- merges to output
// byte-identical to a single-process RunSweep, and the resume
// re-executes only the missing specs (the committed outcome files'
// mtimes stay untouched).
func TestSweepStoreShardResumeIdentical(t *testing.T) {
	specs := sweepSpecs(6)
	single := RunSweep(context.Background(), SweepConfig{Specs: specs, Workers: 1})

	dir := t.TempDir()
	for _, worker := range []string{"w1", "w2"} {
		ctx, cancel, store := cancelAfterFirstRun(dir, worker)
		run, err := RunSweepStore(ctx, SweepConfig{Specs: specs, Workers: 1}, store)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if run.Err == nil {
			t.Fatalf("cancelled worker %s reported no context error", worker)
		}
		if got, want := len(run.Ran), 1; got != want {
			t.Fatalf("cancelled worker %s committed %d specs %v, want %d", worker, got, run.Ran, want)
		}
	}

	// The merge must report exactly the four uncommitted specs.
	merge, err := MergeSweepStore(SweepConfig{Specs: specs}, StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(merge.Missing), 4; got != want {
		t.Fatalf("%d specs missing %v, want %d", got, merge.Missing, want)
	}

	// Resume. Completed specs must not re-execute: their outcome
	// files' mtimes are pinned across the resume.
	before := storeOutcomeMtimes(t, dir)
	resumed, err := RunSweepStore(context.Background(),
		SweepConfig{Specs: specs, Workers: 2},
		StoreConfig{Dir: dir, WorkerID: "w3"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(resumed.Ran), 4; got != want {
		t.Fatalf("resume ran %d specs %v, want %d", got, resumed.Ran, want)
	}
	if got, want := len(resumed.Skipped), 2; got != want {
		t.Fatalf("resume skipped %d specs %v, want %d", got, resumed.Skipped, want)
	}
	after := storeOutcomeMtimes(t, dir)
	for name, mt := range before {
		if !after[name].Equal(mt) {
			t.Fatalf("outcome %s was rewritten on resume (mtime %v -> %v)", name, mt, after[name])
		}
	}

	merge, err = MergeSweepStore(SweepConfig{Specs: specs}, StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(merge.Missing) != 0 {
		t.Fatalf("specs still missing after resume: %v", merge.Missing)
	}
	if got, want := merge.Result.Format(), single.Format(); got != want {
		t.Fatalf("split+resumed merge differs from single-process RunSweep (first diff near byte %d):\n%s", firstDiff(got, want), got)
	}
}

// TestSweepStoreWorkStealingIdentical is the lease scheduler's
// acceptance pin: three workers with distinct identities race one
// shared run directory (exactly what three processes on a network
// filesystem do), every spec is claimed exactly once, all three
// return only when the queue is drained, and the merge is
// byte-identical to a single-process RunSweep. Run under -race in CI.
func TestSweepStoreWorkStealingIdentical(t *testing.T) {
	specs := sweepSpecs(6)
	single := RunSweep(context.Background(), SweepConfig{Specs: specs, Workers: 1})

	dir := t.TempDir()
	// A long TTL makes reclaims impossible, so claim exclusivity alone
	// must partition the specs.
	runs := make([]*StoreRun, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runs[w], errs[w] = RunSweepStore(context.Background(),
				SweepConfig{Specs: specs, Workers: 1},
				StoreConfig{Dir: dir, WorkerID: fmt.Sprintf("w%d", w), LeaseTTL: time.Minute})
		}(w)
	}
	wg.Wait()

	total, reclaims := 0, 0
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		total += len(runs[w].Ran)
		reclaims += runs[w].Reclaims
	}
	if total != len(specs) {
		t.Fatalf("workers committed %d specs in total, want %d (duplicate or lost claims)", total, len(specs))
	}
	if reclaims != 0 {
		t.Fatalf("%d reclaims among live heartbeating workers", reclaims)
	}

	merge, err := MergeSweepStore(SweepConfig{Specs: specs}, StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(merge.Missing) != 0 {
		t.Fatalf("specs missing after a drained run: %v", merge.Missing)
	}
	if got, want := merge.Result.Format(), single.Format(); got != want {
		t.Fatalf("work-stealing merge differs from single-process RunSweep (first diff near byte %d):\n%s", firstDiff(got, want), got)
	}

	// The manifest's per-worker throughput counters must account for
	// every committed spec and some positive simulated time.
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m storeManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	completed, sim := 0, 0.0
	for _, ws := range m.Workers {
		completed += ws.Completed
		sim += ws.SimSeconds
	}
	if completed != len(specs) || sim <= 0 {
		t.Fatalf("manifest worker counters: completed %d (want %d), sim-seconds %g: %+v", completed, len(specs), sim, m.Workers)
	}
}

// TestSweepStoreWorkStealingReclaimIdentical is the kill-based
// resilience pin: a worker hard-killed mid-study leaves its lease
// behind with no outcome (modeled by claiming the spec and never
// heartbeating or committing). A live worker must wait out the TTL,
// reclaim the spec, drain the whole sweep with no manual resume, and
// still merge byte-identical to a single-process RunSweep.
func TestSweepStoreWorkStealingReclaimIdentical(t *testing.T) {
	specs := sweepSpecs(4)
	single := RunSweep(context.Background(), SweepConfig{Specs: specs, Workers: 1})

	dir := t.TempDir()
	const ttl = 150 * time.Millisecond
	labels, fps := specKeys("", specs)
	if err := ensureManifest(StoreConfig{Dir: dir}, labels, fps); err != nil {
		t.Fatal(err)
	}
	// The "dead" worker claims a spec and dies: lease held, no
	// heartbeat, no outcome.
	claimed, _, err := tryClaim(dir, fps[1], "dead#0", ttl)
	if err != nil || !claimed {
		t.Fatalf("dead worker's claim: claimed=%v err=%v", claimed, err)
	}

	var log bytes.Buffer
	run, err := RunSweepStore(context.Background(),
		SweepConfig{Specs: specs, Workers: 2},
		StoreConfig{Dir: dir, WorkerID: "live", LeaseTTL: ttl, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(run.Ran), len(specs); got != want {
		t.Fatalf("live worker committed %d specs %v, want %d", got, run.Ran, want)
	}
	if run.Reclaims < 1 {
		t.Fatalf("live worker reported no reclaims (log: %q)", log.String())
	}
	if !strings.Contains(log.String(), "reclaimed") {
		t.Fatalf("reclaim not logged: %q", log.String())
	}
	if run.Worker.Reclaims != run.Reclaims || run.Worker.Completed != len(run.Ran) {
		t.Fatalf("worker stats disagree with the run: %+v vs Ran=%d Reclaims=%d", run.Worker, len(run.Ran), run.Reclaims)
	}

	merge, err := MergeSweepStore(SweepConfig{Specs: specs}, StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(merge.Missing) != 0 {
		t.Fatalf("specs missing after reclaim: %v", merge.Missing)
	}
	if got, want := merge.Result.Format(), single.Format(); got != want {
		t.Fatalf("reclaimed merge differs from single-process RunSweep (first diff near byte %d):\n%s", firstDiff(got, want), got)
	}
}

// TestSweepStoreLeaseCancelReleases: a gracefully cancelled worker
// (ctx cancel, not SIGKILL) releases every lease it holds on the way
// out, so a successor picks up the remaining specs immediately --
// zero reclaims, no TTL wait -- and the merge is still byte-identical.
func TestSweepStoreLeaseCancelReleases(t *testing.T) {
	specs := sweepSpecs(5)
	single := RunSweep(context.Background(), SweepConfig{Specs: specs, Workers: 1})

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run1, err := RunSweepStore(ctx,
		SweepConfig{
			Specs:     specs,
			Workers:   1,
			PostStudy: func(i int, r *Result) { cancel() },
		},
		StoreConfig{Dir: dir, WorkerID: "w1", LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if run1.Err == nil {
		t.Fatal("cancelled worker reported no context error")
	}
	if got, want := len(run1.Ran), 1; got != want {
		t.Fatalf("cancelled worker committed %d specs %v, want %d", got, run1.Ran, want)
	}
	if leases, _ := filepath.Glob(filepath.Join(dir, "*.lease")); len(leases) != 0 {
		t.Fatalf("cancelled worker left leases behind: %v", leases)
	}

	// The successor must drain the rest without waiting a TTL (the
	// minute-long TTL would time the test out if a reclaim were
	// needed).
	run2, err := RunSweepStore(context.Background(),
		SweepConfig{Specs: specs, Workers: 2},
		StoreConfig{Dir: dir, WorkerID: "w2", LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if run2.Reclaims != 0 {
		t.Fatalf("successor reclaimed %d specs; graceful cancel should have released them", run2.Reclaims)
	}
	if got, want := len(run2.Ran)+len(run2.Skipped), len(specs); got != want {
		t.Fatalf("successor saw %d specs (ran %v, skipped %v), want %d", got, run2.Ran, run2.Skipped, want)
	}

	merge, err := MergeSweepStore(SweepConfig{Specs: specs}, StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merge.Result.Format(), single.Format(); got != want {
		t.Fatalf("cancel+takeover merge differs from single-process RunSweep (first diff near byte %d)", firstDiff(got, want))
	}
}

// TestLeaseStoreClaimsCostOrder: workers claim pending specs in
// descending estimated cost (scale x horizon), so the most expensive
// study starts first instead of becoming the tail.
func TestLeaseStoreClaimsCostOrder(t *testing.T) {
	specs := CrossSpecs([]uint64{1}, []float64{0.01, 0.05, 0.02}, nil, nil)
	labels, fps := specKeys("", specs)
	store, err := StoreConfig{Dir: t.TempDir(), WorkerID: "w", LeaseTTL: time.Minute}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	_, err = runStore(context.Background(), 1, store, labels, fps, specCosts(specs),
		func(_, i int) (StudyOutcome, string, string, error) {
			got = append(got, i)
			return StudyOutcome{Spec: specs[i], Done: true}, "", "", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 0}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("claim order %v, want %v (descending scale)", got, want)
	}
	// Ties keep spec order, so the claim sequence is deterministic.
	costs := []float64{1, 2, 2, 1}
	if order := costOrder(costs); fmt.Sprint(order) != fmt.Sprint([]int{1, 2, 0, 3}) {
		t.Fatalf("costOrder(%v) = %v", costs, order)
	}
}

// TestLeaseStoreWakesOnInProcessCommit: a worker that finds the last
// pending spec leased by an in-process sibling wakes on the sibling's
// commit, so the run returns promptly instead of after a full poll
// interval (2 s at the default 30 s TTL).
func TestLeaseStoreWakesOnInProcessCommit(t *testing.T) {
	specs := CrossSpecs([]uint64{1}, []float64{0.01, 0.02}, nil, nil)
	labels, fps := specKeys("", specs)
	store, err := StoreConfig{Dir: t.TempDir(), WorkerID: "w"}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	// Spec 1 (the costlier, claimed first) runs long; whoever takes
	// spec 0 finishes early and must wait on spec 1's lease.
	var mu sync.Mutex
	var lastExec time.Time
	_, err = runStore(context.Background(), 2, store, labels, fps, specCosts(specs),
		func(_, i int) (StudyOutcome, string, string, error) {
			time.Sleep(time.Duration(20+180*i) * time.Millisecond)
			mu.Lock()
			lastExec = time.Now()
			mu.Unlock()
			return StudyOutcome{Spec: specs[i], Done: true}, "", "", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if tail := time.Since(lastExec); tail > 500*time.Millisecond {
		t.Fatalf("run returned %v after the last study finished; an idle worker slept out its poll", tail)
	}
}

// TestLeaseStoreNoDuplicateExecution: in-process workers racing over
// many instant specs each run exactly once. A worker that stats a spec
// as pending can lose it to a sibling that commits and releases before
// the worker's claim; the claim then succeeds on a fresh lease file,
// so the worker must check for the outcome again under its lease
// rather than run the spec a second time.
func TestLeaseStoreNoDuplicateExecution(t *testing.T) {
	seeds := make([]uint64, 64)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	specs := CrossSpecs(seeds, []float64{0.01}, nil, nil)
	labels, fps := specKeys("", specs)
	for round := 0; round < 30; round++ {
		store, err := StoreConfig{Dir: t.TempDir(), WorkerID: "w", LeaseTTL: time.Minute}.normalized()
		if err != nil {
			t.Fatal(err)
		}
		execs := make([]int, len(specs))
		var mu sync.Mutex
		run, err := runStore(context.Background(), 4, store, labels, fps, specCosts(specs),
			func(_, i int) (StudyOutcome, string, string, error) {
				mu.Lock()
				execs[i]++
				mu.Unlock()
				return StudyOutcome{Spec: specs[i], Done: true}, "", "", nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range execs {
			if n != 1 {
				t.Fatalf("round %d: spec %d ran %d times (executions %v)", round, i, n, execs)
			}
		}
		if len(run.Ran) != len(specs) || run.Worker.Completed != len(specs) {
			t.Fatalf("round %d: Ran=%d Completed=%d, want %d", round, len(run.Ran), run.Worker.Completed, len(specs))
		}
	}
}

// TestReapLeaseHandsBackLiveLease: a worker that found a lease expired
// can lose a race to a sibling that reaps the same dead lease and
// claims the spec first, so the file its own rename moves is the
// sibling's live lease. The reap must restore that lease byte for byte
// and report failure; an expired lease is removed.
func TestReapLeaseHandsBackLiveLease(t *testing.T) {
	dir := t.TempDir()
	path, reap := leasePath(dir, "fp"), leasePath(dir, "fp")+".reap-w"
	live := leaseBytes("sibling#0", "fp", time.Now().Add(time.Minute))
	if err := os.WriteFile(path, live, 0o644); err != nil {
		t.Fatal(err)
	}
	if reapLease(path, reap, time.Minute) {
		t.Fatal("reaped a live lease")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, live) {
		t.Fatalf("live lease not restored: %q, %v", got, err)
	}
	if _, err := os.Stat(reap); !os.IsNotExist(err) {
		t.Fatalf("reap scratch file left behind: %v", err)
	}

	dead := leaseBytes("dead#0", "fp", time.Now().Add(-time.Second))
	if err := os.WriteFile(path, dead, 0o644); err != nil {
		t.Fatal(err)
	}
	if !reapLease(path, reap, time.Minute) {
		t.Fatal("expired lease not reaped")
	}
	for _, p := range []string{path, reap} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived the reap: %v", filepath.Base(p), err)
		}
	}
}

// TestStoreStaleSweep: opening a store removes debris a killed
// process left behind -- old commit temp files and leases whose
// outcome is already committed -- while sparing fresh temp files that
// may belong to a live writer, and logs what it removed.
func TestStoreStaleSweep(t *testing.T) {
	specs := sweepSpecs(2)
	dir := t.TempDir()
	if _, err := RunSweepStore(context.Background(), SweepConfig{Specs: specs},
		StoreConfig{Dir: dir, LeaseTTL: time.Minute}); err != nil {
		t.Fatal(err)
	}

	_, fps := specKeys("", specs)
	old := time.Now().Add(-time.Hour)
	staleTmp := filepath.Join(dir, "deadbeef.json.tmp12345")
	freshTmp := filepath.Join(dir, "cafe.json.tmp67890")
	orphanLease := filepath.Join(dir, fps[0]+".lease")
	for _, p := range []string{staleTmp, freshTmp, orphanLease} {
		if err := os.WriteFile(p, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Chtimes(staleTmp, old, old); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	if _, err := RunSweepStore(context.Background(), SweepConfig{Specs: specs},
		StoreConfig{Dir: dir, LeaseTTL: time.Minute, Log: &log}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(staleTmp); !os.IsNotExist(err) {
		t.Error("stale temp file survived the open sweep")
	}
	if _, err := os.Stat(orphanLease); !os.IsNotExist(err) {
		t.Error("orphaned lease for a committed outcome survived the open sweep")
	}
	if _, err := os.Stat(freshTmp); err != nil {
		t.Error("fresh temp file (possibly a live writer's) was removed")
	}
	for _, want := range []string{"stale temp file", "orphaned lease"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("open sweep did not log %q: %q", want, log.String())
		}
	}
}

// TestSweepStoreSpillIdentical: the streaming-spill path commits the
// same report text and counters as the batch path, and every
// <fingerprint>.trc is a readable trace whose event count matches
// its outcome.
func TestSweepStoreSpillIdentical(t *testing.T) {
	specs := sweepSpecs(2)
	single := RunSweep(context.Background(), SweepConfig{Specs: specs, Workers: 1})

	dir := t.TempDir()
	store := StoreConfig{Dir: dir, SpillTraces: true}
	if _, err := RunSweepStore(context.Background(), SweepConfig{Specs: specs}, store); err != nil {
		t.Fatal(err)
	}
	merge, err := MergeSweepStore(SweepConfig{Specs: specs}, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(merge.Missing) != 0 {
		t.Fatalf("missing specs: %v", merge.Missing)
	}
	if got, want := merge.Result.Format(), single.Format(); got != want {
		t.Fatalf("spilled merge differs from batch RunSweep (first diff near byte %d)", firstDiff(got, want))
	}
	for i, spec := range specs {
		fp := SpecFingerprint("", spec)
		rd, err := trace.OpenReader(filepath.Join(dir, fp+".trc"))
		if err != nil {
			t.Fatalf("spec %d spilled trace unreadable: %v", i, err)
		}
		if got, want := int(rd.EventCount()), merge.Result.Outcomes[i].EventCount; got != want {
			t.Errorf("spec %d: trace holds %d events, outcome says %d", i, got, want)
		}
		if got, want := rd.Header().Seed, spec.Config.Seed; got != want {
			t.Errorf("spec %d: trace seed %d, want %d", i, got, want)
		}
		rd.Close()
	}
}

// TestScenarioStoreShardedIdentical: a simulation scenario lowered
// onto the store and split between two lease workers -- the first
// cancelled after one study, the second draining the rest --
// reconstructs a result (sweep table and per-study cache experiments)
// byte-identical to a single-process RunScenario.
func TestScenarioStoreShardedIdentical(t *testing.T) {
	parse := func() *scenario.Spec {
		spec, err := scenario.Parse([]byte(`{
			"version": 1, "name": "store-sharded",
			"seeds": [1, 2], "scales": [0.01], "workers": 1,
			"cache": {"fig8": {"buffers": [1, 10]}}
		}`))
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	baseline, err := RunScenario(context.Background(), parse())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel, store := cancelAfterFirstRun(dir, "w1")
	defer cancel()
	run, err := RunScenarioStore(ctx, parse(), store)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(run.Run.Ran), 1; got != want {
		t.Fatalf("cancelled worker ran %d studies, want %d", got, want)
	}
	if run.Result != nil {
		t.Fatal("half-run scenario produced a merged result")
	}
	run, err = RunScenarioStore(context.Background(), parse(), StoreConfig{Dir: dir, WorkerID: "w2"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(run.Run.Ran), 1; got != want {
		t.Fatalf("second worker ran %d studies, want %d", got, want)
	}
	if run.Result == nil {
		t.Fatalf("complete scenario produced no merged result (missing %v)", run.Merge.Missing)
	}
	if got, want := run.Result.Format(), baseline.Format(); got != want {
		t.Fatalf("split scenario differs from RunScenario (first diff near byte %d)", firstDiff(got, want))
	}
}

// TestScenarioStoreReplay: replay scenarios distribute over their
// trace files through the same store, merging byte-identical to the
// in-memory replay path.
func TestScenarioStoreReplay(t *testing.T) {
	path := filepath.Join(corpusDir, "replay-smoke.json")
	spec, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	spec2, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunScenarioStore(context.Background(), spec2, StoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if run.Result == nil {
		t.Fatalf("replay store run incomplete: missing %v", run.Merge.Missing)
	}
	if got, want := run.Result.Format(), baseline.Format(); got != want {
		t.Fatalf("stored replay scenario differs from RunScenario (first diff near byte %d)", firstDiff(got, want))
	}
}

// TestScenarioStoreCachePlanPinned: the cache plan shapes each
// study's persisted text but lives outside the StudySpec, so it is
// folded into the fingerprint salt -- resuming a run directory with
// an edited cache grid must fail the manifest check instead of
// silently merging the old experiments' text.
func TestScenarioStoreCachePlanPinned(t *testing.T) {
	parse := func(buffers string) *scenario.Spec {
		spec, err := scenario.Parse([]byte(`{
			"version": 1, "name": "plan-pinned", "scales": [0.01],
			"cache": {"fig8": {"buffers": ` + buffers + `}}
		}`))
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	dir := t.TempDir()
	if _, err := RunScenarioStore(context.Background(), parse("[1]"), StoreConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunScenarioStore(context.Background(), parse("[1, 10]"), StoreConfig{Dir: dir}); err == nil {
		t.Fatal("store accepted a resumed scenario with a different cache plan")
	}
}

// TestReplayStoreTraceRegenerationPinned: replay fingerprints cover
// the trace file's size and mtime, so regenerating a trace in place
// invalidates the stored run (a manifest mismatch) rather than
// silently reusing the outcome of the old bytes.
func TestReplayStoreTraceRegenerationPinned(t *testing.T) {
	dir := t.TempDir()
	trc := filepath.Join(dir, "in.trc")
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "traces", "smoke.trc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(trc, src, 0o644); err != nil {
		t.Fatal(err)
	}
	parse := func() *scenario.Spec {
		spec, err := scenario.Parse([]byte(`{
			"version": 1, "name": "regen", "replay": {"traces": ["` + trc + `"]}
		}`))
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	runDir := t.TempDir()
	if _, err := RunScenarioStore(context.Background(), parse(), StoreConfig{Dir: runDir}); err != nil {
		t.Fatal(err)
	}
	// "Regenerate" the trace: same path, different mtime.
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(trc, past, past); err != nil {
		t.Fatal(err)
	}
	if _, err := RunScenarioStore(context.Background(), parse(), StoreConfig{Dir: runDir}); err == nil {
		t.Fatal("store reused outcomes for a regenerated trace file")
	}
}

// TestStoreManifestPinsRun: a run directory refuses a different spec
// list, so two sweeps can never interleave their outcome files.
func TestStoreManifestPinsRun(t *testing.T) {
	dir := t.TempDir()
	store := StoreConfig{Dir: dir}
	if _, err := RunSweepStore(context.Background(), SweepConfig{Specs: sweepSpecs(2)}, store); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSweepStore(context.Background(), SweepConfig{Specs: sweepSpecs(3)}, store); err == nil {
		t.Fatal("store accepted a different sweep into the same directory")
	}
}

// TestStoreConfigValidation covers the store's rejected shapes.
func TestStoreConfigValidation(t *testing.T) {
	specs := sweepSpecs(2)
	ctx := context.Background()
	cases := []struct {
		name  string
		cfg   SweepConfig
		store StoreConfig
	}{
		{"empty dir", SweepConfig{Specs: specs}, StoreConfig{}},
		{"keep events", SweepConfig{Specs: specs, KeepEvents: true}, StoreConfig{Dir: t.TempDir()}},
		{"keep reports", SweepConfig{Specs: specs, KeepReports: true}, StoreConfig{Dir: t.TempDir()}},
		{"spill with post-study", SweepConfig{Specs: specs, PostStudy: func(int, *Result) {}},
			StoreConfig{Dir: t.TempDir(), SpillTraces: true}},
	}
	for _, tc := range cases {
		if _, err := RunSweepStore(ctx, tc.cfg, tc.store); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSpecFingerprint pins the fingerprint's sensitivity: identical
// specs collide, and every axis of the configuration -- plus the
// caller salt -- separates them.
func TestSpecFingerprint(t *testing.T) {
	base := CrossSpecs([]uint64{1}, []float64{0.05}, nil, nil)[0]
	if SpecFingerprint("", base) != SpecFingerprint("", base) {
		t.Fatal("identical specs fingerprint differently")
	}
	seen := map[string]string{SpecFingerprint("", base): "base"}
	add := func(name string, spec StudySpec) {
		fp := SpecFingerprint("", spec)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s collides with %s", name, prev)
		}
		seen[fp] = name
	}
	seedVar := base
	seedVar.Config.Seed = 2
	add("seed", seedVar)
	scaleVar := base
	scaleVar.Config.Scale = 0.1
	add("scale", scaleVar)
	labelVar := base
	labelVar.Label = "renamed"
	add("label", labelVar)
	wp := workload.Default(0)
	wp.CFDSimJobs++
	wlVar := base
	wlVar.Config.Workload = &wp
	add("workload", wlVar)
	mc := machine.NASConfig(0)
	mc.ComputeNodes = 64
	mcVar := base
	mcVar.Config.Machine = &mc
	add("machine", mcVar)
	// A caller salt must move the fingerprint too.
	if fp := SpecFingerprint("salted", base); seen[fp] != "" {
		t.Fatalf("salted fingerprint collides with %s", seen[fp])
	}

	// Non-finite floats in hand-built override params must hash, not
	// panic (json.Marshal would refuse them), and must not collide
	// with the finite variant.
	nanWl := workload.Default(0)
	nanWl.HorizonHours = math.NaN()
	nanVar := base
	nanVar.Config.Workload = &nanWl
	add("nan workload", nanVar)
}

// TestNormalizedRejectsNonFinite pins the NaN-scale fix at the
// library clamp: NaN and infinities can no longer reach the
// generator through Config.normalized.
func TestNormalizedRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		if got := (Config{Scale: bad}).normalized().Scale; got != MinScale {
			t.Fatalf("normalized(%v) scale = %v, want %v", bad, got, MinScale)
		}
	}
	if got := (Config{Scale: 0.5}).normalized().Scale; got != 0.5 {
		t.Fatalf("normalized clobbered a valid scale: %v", got)
	}
}

// TestStoreProgressExactlyOnce pins the Progress hook's contract:
// exactly one notification per spec, running Done counts that reach
// Total, the right state per materialization (ran on first execution,
// skipped when found committed at open), and no calls at all when the
// hook is nil (the default path must not regress).
func TestStoreProgressExactlyOnce(t *testing.T) {
	specs := sweepSpecs(4)
	dir := t.TempDir()

	var mu sync.Mutex
	var got []StoreProgress
	record := func(p StoreProgress) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	}

	if _, err := RunSweepStore(context.Background(),
		SweepConfig{Specs: specs, Workers: 2},
		StoreConfig{Dir: dir, Progress: record}); err != nil {
		t.Fatal(err)
	}
	check := func(wantState string) {
		t.Helper()
		if len(got) != len(specs) {
			t.Fatalf("%d progress calls for %d specs: %+v", len(got), len(specs), got)
		}
		seen := make(map[int]bool)
		maxDone := 0
		for _, p := range got {
			if seen[p.Index] {
				t.Fatalf("spec %d notified twice: %+v", p.Index, got)
			}
			seen[p.Index] = true
			if p.State != wantState {
				t.Fatalf("spec %d state %q, want %q", p.Index, p.State, wantState)
			}
			if p.Total != len(specs) || p.Done < 1 || p.Done > p.Total || p.Label == "" {
				t.Fatalf("malformed progress %+v", p)
			}
			if p.Done > maxDone {
				maxDone = p.Done
			}
		}
		if maxDone != len(specs) {
			t.Fatalf("running Done count peaked at %d, want %d", maxDone, len(specs))
		}
	}
	check(StoreSpecRan)

	// A resumed run finds everything committed at open.
	got = nil
	if _, err := RunSweepStore(context.Background(),
		SweepConfig{Specs: specs, Workers: 2},
		StoreConfig{Dir: dir, Progress: record}); err != nil {
		t.Fatal(err)
	}
	check(StoreSpecSkipped)
}

// TestMergeScenarioStore pins the serve daemon's cache probe: on a
// fresh or half-committed directory the merge-only probe reports the
// missing studies without executing anything, and once the directory
// is fully committed it reconstructs the exact RunScenario bytes from
// disk.
func TestMergeScenarioStore(t *testing.T) {
	parse := func() *scenario.Spec {
		spec, err := scenario.Parse([]byte(`{
			"version": 1, "name": "probe",
			"seeds": [1, 2], "scales": [0.01], "workers": 1
		}`))
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	baseline, err := RunScenario(context.Background(), parse())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	probe, err := MergeScenarioStore(parse(), StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if probe.Result != nil || len(probe.Merge.Missing) != 2 {
		t.Fatalf("empty-directory probe: result %v, missing %v", probe.Result, probe.Merge.Missing)
	}
	if probe.Run != nil {
		t.Fatalf("merge-only probe reported an execution: %+v", probe.Run)
	}

	// Half-commit through a worker cancelled after its first study,
	// then probe again.
	ctx, cancel, store := cancelAfterFirstRun(dir, "w1")
	defer cancel()
	if _, err := RunScenarioStore(ctx, parse(), store); err != nil {
		t.Fatal(err)
	}
	probe, err = MergeScenarioStore(parse(), StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if probe.Result != nil || len(probe.Merge.Missing) != 1 {
		t.Fatalf("half-committed probe: result %v, missing %v", probe.Result, probe.Merge.Missing)
	}

	if _, err := RunScenarioStore(context.Background(), parse(),
		StoreConfig{Dir: dir, WorkerID: "w2"}); err != nil {
		t.Fatal(err)
	}
	probe, err = MergeScenarioStore(parse(), StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if probe.Result == nil {
		t.Fatalf("fully committed probe found no result: missing %v", probe.Merge.Missing)
	}
	if got, want := probe.Result.Format(), baseline.Format(); got != want {
		t.Fatalf("probe merge differs from RunScenario (first diff near byte %d)", firstDiff(got, want))
	}
}
