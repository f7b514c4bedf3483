// The persistent run store: distributed, resumable sweep execution.
// A full-scale multi-seed sweep is hours of work, and until now it
// was one monolithic process that lost everything on interruption.
// The store turns a sweep into a directory of per-study outcome
// files keyed by a configuration fingerprint (the run-manifest shape
// simulation harnesses converge on): any number of processes,
// started and restarted at any time, drain one shared queue of
// not-yet-done studies via lease-based claiming (see lease.go) and
// persist each outcome as it completes. A merge pass then loads
// every outcome file and reconstructs a SweepResult whose Format
// output is byte-identical to a single-process RunSweep -- the
// worker-count-invariance discipline of PRs 2-4, extended across
// processes, machines, restarts, and mid-study worker deaths
// (TestSweepStoreWorkStealingIdentical and
// TestSweepStoreLeaseCancelReleases pin it).
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// storeVersion is the run-store layout version. It salts every
// fingerprint, so a layout or simulator-output change makes old
// outcome files unreachable (and the manifest check reports the
// mismatch) instead of silently merging stale results.
const storeVersion = 1

// storeSalt is the code-version salt folded into every fingerprint.
// Bump it whenever any simulator, analysis, or formatting change
// alters study output for an unchanged StudySpec.
const storeSalt = "charisma-store-v1"

// StoreConfig selects the run directory and how this process claims
// work from it: every worker drains one shared queue of pending specs,
// claiming each via an atomic lease file and reclaiming leases whose
// holder died (see lease.go).
type StoreConfig struct {
	// Dir is the run directory; it is created if absent. One directory
	// holds one sweep (the manifest pins the spec list).
	Dir string
	// WorkerID identifies this process in lease files and the
	// manifest's per-worker throughput counters. Empty means a
	// host-pid identity. Sanitized to the filename-safe alphabet.
	WorkerID string
	// LeaseTTL is how long a claim survives without a heartbeat
	// before other workers may reclaim its spec; 0 means
	// DefaultLeaseTTL. All workers sharing a run directory should use
	// the same TTL, comfortably above their mutual clock skew.
	LeaseTTL time.Duration
	// Log, when non-nil, receives store housekeeping notices (stale
	// temp-file sweeps, orphaned-lease removal, reclaims). nil
	// discards them.
	Log io.Writer
	// Progress, when non-nil, is called once per spec as this run
	// learns its outcome exists: found already committed at open
	// (StoreSpecSkipped), committed by this process (StoreSpecRan), or
	// observed landing from another worker sharing the directory
	// (StoreSpecObserved). Calls arrive from worker goroutines
	// concurrently and must not block for long -- the serve daemon
	// streams them to clients as job progress events.
	Progress func(StoreProgress)
}

// Spec-progress states, in StoreProgress.State.
const (
	StoreSpecSkipped  = "skipped"  // outcome existed when this run opened the store
	StoreSpecRan      = "ran"      // executed and committed by this process
	StoreSpecObserved = "observed" // committed by another worker while this run waited
)

// StoreProgress is one job-granular progress notification from a
// store run: spec Index's outcome is now known to exist, bringing the
// run to Done of Total committed outcomes.
type StoreProgress struct {
	Index int    // spec index within the run's spec list
	Label string // the spec's report label
	Done  int    // outcomes known committed, including this one
	Total int    // specs in the run
	State string // StoreSpecSkipped, StoreSpecRan, or StoreSpecObserved
	// Reclaimed marks a StoreSpecRan spec whose claim was taken over
	// from an expired lease.
	Reclaimed bool
}

// normalized returns the store config with the lease defaults filled
// in, or an error for an empty run directory. The store entry points
// call it once, in sweepKeys or scenarioStoreKeys.
func (sc StoreConfig) normalized() (StoreConfig, error) {
	if sc.Dir == "" {
		return sc, errors.New("core: store: empty run directory")
	}
	if sc.WorkerID == "" {
		sc.WorkerID = defaultWorkerID()
	} else {
		sc.WorkerID = sanitizeWorkerID(sc.WorkerID)
	}
	if sc.LeaseTTL <= 0 {
		sc.LeaseTTL = DefaultLeaseTTL
	}
	if sc.LeaseTTL < minLeaseTTL {
		sc.LeaseTTL = minLeaseTTL
	}
	return sc, nil
}

// logf writes one housekeeping notice to the store's log sink.
func (sc StoreConfig) logf(format string, args ...any) {
	if sc.Log == nil {
		return
	}
	fmt.Fprintf(sc.Log, "store: "+format+"\n", args...)
}

// fingerprintDoc is the canonical form a spec fingerprint hashes:
// every field that determines a study's output, plus the
// code-version salt. Workload and Machine are the full override
// parameter structs (nil for the calibrated defaults), so any
// configuration difference -- not just the label -- changes the
// fingerprint.
type fingerprintDoc struct {
	Salt     string
	Label    string
	Seed     uint64
	Scale    float64
	Workload *workload.Params
	Machine  *machine.Config
	// Faults is the fault-injection override (nil for a healthy
	// machine). Kept separate from Machine so that fault-free
	// fingerprints are unchanged from builds that predate fault
	// injection.
	Faults *faults.Config
	// Replay identifies a replay study's input (which has no
	// simulation config at all): the trace path plus the file's size
	// and mtime, so regenerating a trace in place moves the key
	// instead of silently reusing the old outcome.
	Replay      string
	ReplaySize  int64
	ReplayMtime int64
}

// fingerprint hashes the doc to the outcome-file key. The rendering
// is fmt-based rather than JSON: the override structs are plain
// value types all the way down, and fmt never fails on the
// non-finite floats a hand-built config can carry (json.Marshal
// would). Strings that a caller controls are %q-escaped so a crafted
// label cannot collide with a different field split.
func (d fingerprintDoc) fingerprint() string {
	salt := storeSalt
	if d.Salt != "" {
		salt = storeSalt + "+" + d.Salt
	}
	var b strings.Builder
	fmt.Fprintf(&b, "v%d|salt=%q|label=%q|seed=%d|scale=%g", storeVersion, salt, d.Label, d.Seed, d.Scale)
	if d.Workload != nil {
		fmt.Fprintf(&b, "|wl=%+v", *d.Workload)
	}
	if d.Machine != nil {
		appendMachineDoc(&b, *d.Machine)
	}
	if d.Faults != nil {
		fmt.Fprintf(&b, "|faults=%+v", *d.Faults)
	}
	if d.Replay != "" {
		fmt.Fprintf(&b, "|replay=%q|size=%d|mtime=%d", d.Replay, d.ReplaySize, d.ReplayMtime)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// The legacy* mirrors reproduce, field for field, the configuration
// struct shapes from before the topology and disk-model registries
// existed. Machine overrides are fingerprinted through them so every
// hypercube/rotating-drive study keeps the key it had then (stores on
// disk stay valid); the registry-era fields (topology kind, spine
// bandwidth, disk kind, access latency) are appended as explicit
// segments only when they depart from the legacy hardware, so any new
// configuration still gets a distinct key.
// TestFingerprintCompatibility pins this.
type legacyNetConfig struct {
	Dim            int
	Startup        sim.Time
	PerHop         sim.Time
	PerPacket      sim.Time
	PacketBytes    int
	BytesPerSecond float64
}

type legacyDiskConfig struct {
	CapacityBytes  int64
	BlockBytes     int
	Cylinders      int
	MinSeek        sim.Time
	MaxSeek        sim.Time
	RotationPeriod sim.Time
	BytesPerSecond float64
}

type legacyIONodeConfig struct {
	Disk         legacyDiskConfig
	CacheBuffers int
	Overhead     sim.Time
	CacheHitTime sim.Time
	Prefetch     bool
}

type legacyFSConfig struct {
	BlockBytes int
	IONodes    int
	IONode     legacyIONodeConfig
}

type legacyMachineConfig struct {
	ComputeNodes     int
	Net              legacyNetConfig
	FS               legacyFSConfig
	ServiceHost      int
	TraceBufferBytes int
	MaxClockOffset   sim.Time
	MaxClockDriftPPM float64
	Seed             uint64
	Faults           faults.Config
}

// appendMachineDoc renders one machine override into the fingerprint
// document: the legacy-shaped struct via %+v, then the registry-era
// extras when present.
func appendMachineDoc(b *strings.Builder, mc machine.Config) {
	legacy := legacyMachineConfig{
		ComputeNodes: mc.ComputeNodes,
		Net: legacyNetConfig{
			Dim:            mc.Net.Dim,
			Startup:        mc.Net.Startup,
			PerHop:         mc.Net.PerHop,
			PerPacket:      mc.Net.PerPacket,
			PacketBytes:    mc.Net.PacketBytes,
			BytesPerSecond: mc.Net.BytesPerSecond,
		},
		FS: legacyFSConfig{
			BlockBytes: mc.FS.BlockBytes,
			IONodes:    mc.FS.IONodes,
			IONode: legacyIONodeConfig{
				Disk: legacyDiskConfig{
					CapacityBytes:  mc.FS.IONode.Disk.CapacityBytes,
					BlockBytes:     mc.FS.IONode.Disk.BlockBytes,
					Cylinders:      mc.FS.IONode.Disk.Cylinders,
					MinSeek:        mc.FS.IONode.Disk.MinSeek,
					MaxSeek:        mc.FS.IONode.Disk.MaxSeek,
					RotationPeriod: mc.FS.IONode.Disk.RotationPeriod,
					BytesPerSecond: mc.FS.IONode.Disk.BytesPerSecond,
				},
				CacheBuffers: mc.FS.IONode.CacheBuffers,
				Overhead:     mc.FS.IONode.Overhead,
				CacheHitTime: mc.FS.IONode.CacheHitTime,
				Prefetch:     mc.FS.IONode.Prefetch,
			},
		},
		ServiceHost:      mc.ServiceHost,
		TraceBufferBytes: mc.TraceBufferBytes,
		MaxClockOffset:   mc.MaxClockOffset,
		MaxClockDriftPPM: mc.MaxClockDriftPPM,
		Seed:             mc.Seed,
		Faults:           mc.Faults,
	}
	fmt.Fprintf(b, "|mc=%+v", legacy)
	if k := mc.Net.Kind; k != "" && !strings.EqualFold(k, "hypercube") {
		fmt.Fprintf(b, "|topo=%q", strings.ToLower(k))
	}
	if mc.Net.SpineBytesPerSecond != 0 {
		fmt.Fprintf(b, "|spine=%g", mc.Net.SpineBytesPerSecond)
	}
	if k := mc.FS.IONode.Disk.Kind; k != "" && !strings.EqualFold(k, "rotating") {
		fmt.Fprintf(b, "|diskkind=%q", strings.ToLower(k))
	}
	if al := mc.FS.IONode.Disk.AccessLatency; al != 0 {
		fmt.Fprintf(b, "|access=%d", int64(al))
	}
}

// SpecFingerprint returns the run-store key of one study spec under
// the given extra salt ("" for none). The key covers the label, the
// full normalized configuration, and the store's code-version salt.
func SpecFingerprint(salt string, spec StudySpec) string {
	cfg := spec.Config.normalized()
	return fingerprintDoc{
		Salt:     salt,
		Label:    spec.Label,
		Seed:     cfg.Seed,
		Scale:    cfg.Scale,
		Workload: cfg.Workload,
		Machine:  cfg.Machine,
		Faults:   cfg.Faults,
	}.fingerprint()
}

// replayFingerprint keys a replay study by its input trace: the
// path plus the file's current size and mtime, so a trace
// regenerated in place invalidates the stored outcome (surfaced as
// a manifest mismatch) rather than being silently skipped.
func replayFingerprint(salt, label, path string) (string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", fmt.Errorf("core: store: fingerprinting replay trace: %w", err)
	}
	return fingerprintDoc{
		Salt:        salt,
		Label:       label,
		Replay:      path,
		ReplaySize:  fi.Size(),
		ReplayMtime: fi.ModTime().UnixNano(),
	}.fingerprint(), nil
}

// storedOutcome is the JSON schema of one outcome file. Writing it is
// the commit point of a study: a spec is "done" exactly when its
// outcome file exists and parses. CacheText keeps the key AuxText,
// the name existing run directories were written with: under any
// other key their outcomes would merge with empty cache sections.
type storedOutcome struct {
	StoreVersion  int
	Fingerprint   string
	Label         string
	ReportText    string
	CacheText     string `json:"AuxText,omitempty"`
	Header        trace.Header
	Horizon       int64
	EventCount    int
	TraceRecords  int64
	TraceMessages int64
	DiskOps       int64
}

// outcomePath returns the outcome file for a fingerprint.
func outcomePath(dir, fp string) string { return filepath.Join(dir, fp+".json") }

// writeFileAtomic writes data to path via a same-directory temp file
// and rename, so a concurrently merging process never observes a
// partial file. The temp name is unique per writer (os.CreateTemp),
// so even two workers that both executed one spec publish
// whole files -- last rename wins with identical deterministic
// content -- rather than truncating each other's temp file.
func writeFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// storeManifest pins a run directory to one spec list: resuming with
// a different sweep (or after a code-version salt bump) is an error
// instead of a silent half-merge of two different runs. Workers
// carries the per-worker throughput counters (rebuilt from the
// worker-<id>.json files as workers finish) and never participates in
// the identity check.
type storeManifest struct {
	StoreVersion int
	NumSpecs     int
	Labels       []string
	Fingerprints []string
	Workers      map[string]WorkerStats `json:",omitempty"`
}

// manifestPath is the manifest file inside a run directory.
func manifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }

// ensureManifest creates the run directory and its manifest, or
// verifies the existing manifest matches this run's spec list.
func ensureManifest(store StoreConfig, labels, fps []string) error {
	if err := os.MkdirAll(store.Dir, 0o755); err != nil {
		return fmt.Errorf("core: store: %w", err)
	}
	if err := checkManifest(store.Dir, fps); !errors.Is(err, os.ErrNotExist) {
		return err
	}
	want := storeManifest{StoreVersion: storeVersion, NumSpecs: len(fps), Labels: labels, Fingerprints: fps}
	data, err := json.MarshalIndent(&want, "", "  ")
	if err != nil {
		return fmt.Errorf("core: store: encoding manifest: %w", err)
	}
	return writeFileAtomic(manifestPath(store.Dir), append(data, '\n'))
}

// checkManifest verifies that dir's manifest pins the fingerprints
// fps. A directory with no manifest yet gives an error wrapping
// os.ErrNotExist.
func checkManifest(dir string, fps []string) error {
	existing, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return fmt.Errorf("core: store: reading manifest: %w", err)
	}
	var got storeManifest
	if err := json.Unmarshal(existing, &got); err != nil {
		return fmt.Errorf("core: store: corrupt manifest in %s: %w", dir, err)
	}
	if got.StoreVersion != storeVersion || got.NumSpecs != len(fps) ||
		!slices.Equal(got.Fingerprints, fps) {
		return fmt.Errorf("core: store: %s holds a different run (manifest fingerprints differ); use a fresh directory", dir)
	}
	return nil
}

// StoreRun reports what one RunSweepStore (or scenario-store)
// invocation did. Ran and Skipped are spec indices in ascending
// order; specs committed by other concurrent workers appear in
// neither.
type StoreRun struct {
	Ran     []int // executed and persisted by this invocation
	Skipped []int // outcome file already existed when this run started
	// Reclaims counts expired leases, left by a dead or stalled
	// worker, that this invocation reaped.
	Reclaims int
	// Worker is this invocation's throughput accounting, as persisted
	// to the manifest.
	Worker  WorkerStats
	Elapsed time.Duration
	// Err records the context error when the run was cancelled; specs
	// left unrun stay pending for the next worker or resume.
	Err error
}

// persistOutcome writes one completed outcome as the study's commit
// record.
func persistOutcome(store StoreConfig, fp string, out *StudyOutcome) error {
	doc := storedOutcome{
		StoreVersion:  storeVersion,
		Fingerprint:   fp,
		Label:         out.Spec.Label,
		ReportText:    out.ReportText,
		CacheText:     out.CacheText,
		Header:        out.Header,
		Horizon:       int64(out.Horizon),
		EventCount:    out.EventCount,
		TraceRecords:  out.TraceRecords,
		TraceMessages: out.TraceMessages,
		DiskOps:       out.DiskOps,
	}
	data, err := json.Marshal(&doc)
	if err != nil {
		return fmt.Errorf("core: store: encoding outcome %s: %w", fp, err)
	}
	if err := writeFileAtomic(outcomePath(store.Dir, fp), data); err != nil {
		return fmt.Errorf("core: store: persisting outcome %s: %w", fp, err)
	}
	return nil
}

// loadOutcome reads and validates one outcome file; os.ErrNotExist
// passes through for pending specs.
func loadOutcome(dir, fp string) (*storedOutcome, error) {
	data, err := os.ReadFile(outcomePath(dir, fp))
	if err != nil {
		return nil, err
	}
	var doc storedOutcome
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("core: store: corrupt outcome %s: %w", outcomePath(dir, fp), err)
	}
	if doc.StoreVersion != storeVersion || doc.Fingerprint != fp {
		return nil, fmt.Errorf("core: store: outcome %s does not match its key (version %d, fingerprint %s)",
			outcomePath(dir, fp), doc.StoreVersion, doc.Fingerprint)
	}
	return &doc, nil
}

// runStore is the executor shared by the sweep and replay paths. It
// opens the store (manifest check plus a stale-debris sweep), then
// drains it in passes until every spec's outcome exists or ctx is
// cancelled. Each pass hands every pending spec, most expensive first
// (costs, one per spec; ties in spec order), to exactly one of this
// process's workers through parallelEach. That worker commits the spec
// (claim, heartbeat, exec, persist, release), records it as observed
// when another process has committed it, or leaves it for the next
// pass while another process's live lease holds it; a pass that
// changes nothing waits one poll interval first, backing off from 5 ms
// (see lease.go). exec runs one spec on one worker and returns its
// finished outcome.
func runStore(ctx context.Context, workers int, store StoreConfig, labels, fps []string, costs []float64,
	exec func(worker, specIdx int) (StudyOutcome, error)) (*StoreRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ensureManifest(store, labels, fps); err != nil {
		return nil, err
	}
	sweepStale(store)
	start := time.Now()
	run := &StoreRun{Worker: WorkerStats{WorkerID: store.WorkerID}}
	exists := func(i int) bool {
		_, err := os.Stat(outcomePath(store.Dir, fps[i]))
		return err == nil
	}
	// committed[i] is set, and Progress called, by whoever learns that
	// outcome i exists: the opening scan, or the one worker a pass gives
	// spec i to. A committed spec is in no later pass, so Progress fires
	// once per spec.
	committed := make([]bool, len(fps))
	var done atomic.Int64
	settle := func(i int, state string, reclaimed bool) {
		committed[i] = true
		n := int(done.Add(1))
		if store.Progress != nil {
			store.Progress(StoreProgress{Index: i, Label: labels[i], Done: n, Total: len(fps), State: state, Reclaimed: reclaimed})
		}
	}
	for i := range fps {
		if exists(i) {
			run.Skipped = append(run.Skipped, i)
			settle(i, StoreSpecSkipped, false)
		}
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var mu sync.Mutex // guards run.Ran, run.Reclaims, run.Worker and firstErr
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancelRun()
	}
	// Idle passes back off from minPoll to maxPoll (see lease.go).
	const minPoll = 5 * time.Millisecond
	maxPoll := min(max(store.LeaseTTL/4, minPoll), 2*time.Second)
	poll := minPoll
	isCommitted := func(i int) bool { return committed[i] }
	pending := slices.DeleteFunc(costOrder(costs), isCommitted)
	for len(pending) > 0 && runCtx.Err() == nil {
		parallelEach(runCtx, len(pending), workers, func(w, k int) {
			i, fp := pending[k], fps[pending[k]]
			if exists(i) {
				settle(i, StoreSpecObserved, false)
				return
			}
			// Leases name the process: its workers never share a spec.
			claimed, reclaimed, err := tryClaim(store.Dir, fp, store.WorkerID, store.LeaseTTL)
			if err != nil {
				fail(fmt.Errorf("core: store: claiming %s: %w", fp, err))
				return
			}
			if reclaimed {
				// Counted where the lease was reaped, even if another
				// process's claim took the freed slot first.
				store.logf("%s reclaimed %s from an expired lease", store.WorkerID, fp)
				mu.Lock()
				run.Reclaims++
				mu.Unlock()
			}
			if !claimed {
				return // another process's live lease: the next pass retries
			}
			// Another process may have committed and released between
			// the stat above and this claim. Holders persist before they
			// release, so once the lease is ours a second stat is
			// conclusive.
			if exists(i) {
				releaseLease(store.Dir, fp)
				settle(i, StoreSpecObserved, false)
				return
			}
			stopHB := heartbeatLease(store.Dir, fp, store.WorkerID, store.LeaseTTL)
			out, err := exec(w, i)
			if err == nil {
				err = persistOutcome(store, fp, &out)
			}
			stopHB()
			releaseLease(store.Dir, fp)
			if err != nil {
				fail(err)
				return
			}
			settle(i, StoreSpecRan, reclaimed)
			mu.Lock()
			run.Ran = append(run.Ran, i)
			run.Worker.SimSeconds += out.Horizon.ToSeconds()
			mu.Unlock()
		})
		left := len(pending)
		if pending = slices.DeleteFunc(pending, isCommitted); len(pending) < left {
			poll = minPoll
			continue
		}
		// Everything pending is leased by other processes: poll for
		// their commits and expired leases.
		select {
		case <-runCtx.Done():
		case <-time.After(poll):
		}
		poll = min(2*poll, maxPoll)
	}
	run.Elapsed = time.Since(start)
	run.Err = ctx.Err()
	sort.Ints(run.Ran)
	run.Worker.Completed, run.Worker.Reclaims = len(run.Ran), run.Reclaims
	run.Worker.WallSeconds = run.Elapsed.Seconds()
	if err := persistWorkerStats(store.Dir, run.Worker); err != nil && firstErr == nil {
		firstErr = err
	}
	return run, firstErr
}

// RunSweepStore drains cfg.Specs against the run directory: specs
// whose outcome file already exists are skipped, the rest are
// claimed one at a time (most expensive first) by cfg.Workers
// goroutines (one reusable arena each, exactly like RunSweep), and
// every outcome -- with its cache text under cfg.Cache -- is persisted
// the moment it completes, so a killed process loses at most its
// in-flight studies, and any other worker sharing the directory
// reclaims them after the lease TTL. The call returns once every
// spec's outcome exists (or ctx is cancelled). Combine the outcome
// files with MergeSweepStore.
func RunSweepStore(ctx context.Context, cfg SweepConfig, store StoreConfig) (*StoreRun, error) {
	store, labels, fps, err := sweepKeys(cfg, store)
	if err != nil {
		return nil, err
	}
	return runSweepStore(ctx, cfg, store, labels, fps)
}

// runSweepStore is RunSweepStore on fingerprinted specs.
func runSweepStore(ctx context.Context, cfg SweepConfig, store StoreConfig, labels, fps []string) (*StoreRun, error) {
	arena := workerArenas(cfg.Workers, len(cfg.Specs))
	return runStore(ctx, cfg.Workers, store, labels, fps, specCosts(cfg.Specs),
		func(w, i int) (StudyOutcome, error) {
			return runSpec(arena(w), cfg.Cache, cfg.Specs[i]), nil
		})
}

// sweepKeys normalizes the store config and fingerprints a sweep's
// specs. A cache plan shapes each stored outcome's cache text but is
// not part of any StudySpec, so a non-nil plan is folded into the
// salt, as scenarioStoreKeys does: rerunning or merging a directory
// under another plan then fails the manifest check instead of reusing
// the old plan's text. A nil plan keeps the plain keys.
func sweepKeys(cfg SweepConfig, store StoreConfig) (StoreConfig, []string, []string, error) {
	store, err := store.normalized()
	if err != nil {
		return store, nil, nil, err
	}
	salt := ""
	if cfg.Cache != nil {
		salt = cachePlanSalt(cfg.Cache)
	}
	labels, fps := specKeys(salt, cfg.Specs)
	return store, labels, fps, nil
}

// specKeys fingerprints a spec list.
func specKeys(salt string, specs []StudySpec) (labels, fps []string) {
	labels = make([]string, len(specs))
	fps = make([]string, len(specs))
	for i, s := range specs {
		labels[i] = s.Label
		fps[i] = SpecFingerprint(salt, s)
	}
	return labels, fps
}

// SweepMerge is the reconstruction of a (possibly still running)
// stored sweep.
type SweepMerge struct {
	// Result holds one outcome per spec, loaded from the run
	// directory; specs with no outcome file yet have Done == false.
	// When Missing is empty, Result.Format() is byte-identical to a
	// single-process RunSweep over the same specs.
	Result *SweepResult
	// Missing lists spec indices whose outcome file does not exist
	// yet (still pending, or in flight on another worker).
	Missing []int
}

// MergeSweepStore loads every spec's outcome file from the run
// directory and reconstructs the merged sweep. It never executes
// anything, so it is safe to call concurrently with running workers:
// a spec is either committed (its file parses) or missing.
func MergeSweepStore(cfg SweepConfig, store StoreConfig) (*SweepMerge, error) {
	store, _, fps, err := sweepKeys(cfg, store)
	if err != nil {
		return nil, err
	}
	return mergeStore(store, cfg.Specs, fps)
}

// mergeStore loads outcomes for an already-fingerprinted spec list,
// once the directory's manifest, if it has one yet, pins that list.
func mergeStore(store StoreConfig, specs []StudySpec, fps []string) (*SweepMerge, error) {
	if err := checkManifest(store.Dir, fps); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	m := &SweepMerge{Result: &SweepResult{Outcomes: make([]StudyOutcome, len(specs))}}
	for i := range specs {
		m.Result.Outcomes[i].Spec = specs[i]
		doc, err := loadOutcome(store.Dir, fps[i])
		if errors.Is(err, os.ErrNotExist) {
			m.Missing = append(m.Missing, i)
			continue
		}
		if err != nil {
			return nil, err
		}
		m.Result.Outcomes[i] = StudyOutcome{
			Spec:          specs[i],
			Done:          true,
			ReportText:    doc.ReportText,
			CacheText:     doc.CacheText,
			Header:        doc.Header,
			Horizon:       sim.Time(doc.Horizon),
			EventCount:    doc.EventCount,
			TraceRecords:  doc.TraceRecords,
			TraceMessages: doc.TraceMessages,
			DiskOps:       doc.DiskOps,
		}
	}
	return m, nil
}

// ScenarioStoreRun is one scenario-store invocation's outcome.
type ScenarioStoreRun struct {
	Run   *StoreRun
	Merge *SweepMerge
	// Result is the fully merged scenario, non-nil only when every
	// study's outcome file exists (Merge.Missing is empty). Its
	// Format() is then byte-identical to a single-process
	// RunScenario.
	Result *ScenarioResult
}

// RunScenarioStore lowers a scenario onto the persistent store: the
// same study list and cache experiments as RunScenario, but each
// study's report and cache-experiment text are persisted as they
// complete, this process drains the pending studies alongside any
// other workers sharing the directory, and the merged result is
// reconstructed from the run directory. Replay scenarios distribute
// over their trace files the same way.
func RunScenarioStore(ctx context.Context, spec *scenario.Spec, store StoreConfig) (*ScenarioStoreRun, error) {
	store, keys, err := scenarioStoreKeys(spec, store)
	if err != nil {
		return nil, err
	}
	// The cache experiments observe each study's merge pass on the
	// worker, exactly as in RunScenario; the store persists their text
	// with the outcome so a resumed or merging process never
	// re-simulates a finished study to recover it.
	plan := spec.CachePlan()
	var run *StoreRun
	if spec.IsReplay() {
		arena := workerArenas(spec.Workers, len(keys.paths))
		run, err = runStore(ctx, spec.Workers, store, keys.labels, keys.fps, keys.costs,
			func(w, i int) (StudyOutcome, error) {
				return replayStudy(arena(w), keys.paths[i], plan)
			})
	} else {
		// The store's salt already carries the plan.
		cfg := SweepConfig{Specs: keys.specs, Workers: spec.Workers, Cache: plan}
		run, err = runSweepStore(ctx, cfg, store, keys.labels, keys.fps)
	}
	if err != nil {
		return &ScenarioStoreRun{Run: run}, err
	}
	merge, err := mergeStore(store, keys.specs, keys.fps)
	if err != nil {
		return &ScenarioStoreRun{Run: run}, err
	}
	out := &ScenarioStoreRun{Run: run, Merge: merge}
	if len(merge.Missing) == 0 {
		out.Result = &ScenarioResult{Spec: spec, Sweep: merge.Result}
	}
	return out, nil
}

// scenarioKeys is a scenario's resolved store identity: its study
// list and the per-study labels, fingerprints, claim costs, and (for
// replay scenarios) trace paths.
type scenarioKeys struct {
	specs  []StudySpec
	labels []string
	fps    []string
	costs  []float64
	paths  []string // replay trace paths; nil for simulated scenarios
}

// scenarioStoreKeys validates the spec, normalizes the store config,
// folds the resolved cache plan into the fingerprint salt, and
// resolves the study keys -- the shared front half of
// RunScenarioStore and MergeScenarioStore.
func scenarioStoreKeys(spec *scenario.Spec, store StoreConfig) (StoreConfig, *scenarioKeys, error) {
	if spec == nil {
		return store, nil, errors.New("core: nil scenario spec")
	}
	if err := spec.Validate(); err != nil {
		return store, nil, err
	}
	store, err := store.normalized()
	if err != nil {
		return store, nil, err
	}
	// The cache plan shapes each study's persisted text but is not
	// part of the StudySpec, so fold it into the fingerprint salt:
	// editing a spec's cache grid between runs then surfaces as a
	// manifest mismatch instead of silently merging the old
	// experiments' text.
	salt := cachePlanSalt(spec.CachePlan())
	keys := &scenarioKeys{}
	if spec.IsReplay() {
		keys.paths = spec.ReplayTraces()
		keys.specs = make([]StudySpec, len(keys.paths))
		keys.labels = make([]string, len(keys.paths))
		keys.fps = make([]string, len(keys.paths))
		// A replay study's cost scales with its trace, so claim the
		// biggest files first (same longest-first policy as specCost).
		keys.costs = make([]float64, len(keys.paths))
		for i, path := range keys.paths {
			keys.specs[i] = StudySpec{Label: replayLabel(path)}
			keys.labels[i] = keys.specs[i].Label
			keys.fps[i], err = replayFingerprint(salt, keys.labels[i], path)
			if err != nil {
				return store, nil, err
			}
			if fi, err := os.Stat(path); err == nil {
				keys.costs[i] = float64(fi.Size())
			}
		}
		return store, keys, nil
	}
	keys.specs = ScenarioSpecs(spec)
	keys.labels, keys.fps = specKeys(salt, keys.specs)
	keys.costs = specCosts(keys.specs)
	return store, keys, nil
}

// MergeScenarioStore reconstructs a stored scenario from its run
// directory without executing anything: the returned Run is nil, and
// Result is non-nil exactly when every study's outcome file exists
// (Merge.Missing empty), in which case Result.Format() is
// byte-identical to a single-process RunScenario. This is the serve
// daemon's cache probe: an identical spec whose directory is already
// fully committed is answered straight from disk.
func MergeScenarioStore(spec *scenario.Spec, store StoreConfig) (*ScenarioStoreRun, error) {
	store, keys, err := scenarioStoreKeys(spec, store)
	if err != nil {
		return nil, err
	}
	merge, err := mergeStore(store, keys.specs, keys.fps)
	if err != nil {
		return nil, err
	}
	out := &ScenarioStoreRun{Merge: merge}
	if len(merge.Missing) == 0 {
		out.Result = &ScenarioResult{Spec: spec, Sweep: merge.Result}
	}
	return out, nil
}

// StoreCodeSalt returns the store's code-version fingerprint salt.
// Callers that content-address run directories by spec (the serve
// daemon's job keys) fold it into their keys so a salt bump routes
// jobs to fresh directories instead of tripping the old manifests.
func StoreCodeSalt() string { return storeSalt }

// cachePlanSalt renders a scenario's resolved cache plan into the
// fingerprint salt. The nested pointers are rendered by value (a
// plain %+v would print their addresses).
func cachePlanSalt(plan *scenario.ResolvedCache) string {
	var b strings.Builder
	b.WriteString("plan:")
	if plan == nil {
		b.WriteString("none")
		return b.String()
	}
	fmt.Fprintf(&b, "fig8=%v", plan.Fig8Buffers)
	if plan.Fig9 != nil {
		fmt.Fprintf(&b, "|fig9=%+v", *plan.Fig9)
	}
	if plan.Combined != nil {
		fmt.Fprintf(&b, "|combined=%+v", *plan.Combined)
	}
	return b.String()
}
