// Lease-based work stealing, the persistent run store's claim
// protocol between processes. The run directory itself is the queue.
// Within one process, each of runStore's passes hands every pending
// spec to exactly one worker (parallelEach), so a process's workers
// never compete for a spec. That worker claims it by creating its
// "<fingerprint>.lease" file with O_CREATE|O_EXCL (atomic on local
// and NFS-style shared filesystems alike), heartbeats the lease at
// TTL/3 while the study runs, commits the outcome through the usual
// temp-file+rename path, and removes the lease. A spec whose lease
// another process holds is left for the next pass, and a pass that
// changed nothing waits before the next: 5 ms after the first such
// pass, doubling with each idle pass that follows up to TTL/4
// (clamped to [5 ms, 2 s]), and 5 ms again once a pass commits or
// observes a spec. An idle process thus notices a commit at most
// about as long after it lands as the process had already waited for
// it, and never more than TTL/4 after. Once the lease is past its
// deadline (its holder died or stalled), the next pass reaps it and
// runs the spec. A worker that has run out of specs waits for its pass's
// in-flight studies to end before the next pass begins, so a dead
// process's spec is taken over at most one in-flight study later than
// by a worker polling on its own. Heterogeneous processes or machines
// thus drain one queue and load-balance automatically -- no up-front
// partition, no manual resume.
//
// Mutual exclusion here is a throughput optimization, not a
// correctness requirement: studies are deterministic and commits are
// atomic whole-file renames, so if a presumed-dead worker turns out
// to be alive and two workers race the same spec, both publish
// byte-identical outcomes and the merge is unaffected
// (TestSweepStoreWorkStealingIdentical pins the guarantee under
// -race). The lease protocol only keeps such duplicate work rare.
package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/workload"
)

// DefaultLeaseTTL is the lease time-to-live when StoreConfig.LeaseTTL
// is unset: long enough that a heartbeating worker never looks dead
// across scheduler hiccups or NFS attribute-cache lag, short enough
// that a crashed worker's specs are back in the queue quickly.
const DefaultLeaseTTL = 30 * time.Second

// minLeaseTTL bounds how small a configured TTL can get: below this
// the heartbeat interval would race the filesystem's timestamp
// granularity and live workers would constantly look dead.
const minLeaseTTL = 10 * time.Millisecond

// leaseDoc is the JSON content of one lease file: who holds the
// claim and until when. The deadline is wall clock, so workers on
// different machines must have clocks agreeing to well within the
// TTL (the default 30s dwarfs NTP-grade skew).
type leaseDoc struct {
	Worker      string `json:"worker"`
	Fingerprint string `json:"fingerprint"`
	// DeadlineUnixNano is the instant the claim expires unless
	// renewed by a heartbeat.
	DeadlineUnixNano int64 `json:"deadline_unix_nano"`
}

// leasePath is the claim file guarding one spec's execution.
func leasePath(dir, fp string) string { return filepath.Join(dir, fp+".lease") }

// leaseBytes renders a lease document.
func leaseBytes(owner, fp string, deadline time.Time) []byte {
	data, err := json.Marshal(&leaseDoc{Worker: owner, Fingerprint: fp, DeadlineUnixNano: deadline.UnixNano()})
	if err != nil {
		// The doc is three plain fields; Marshal cannot fail on it.
		panic(err)
	}
	return data
}

// createLease attempts the atomic O_CREATE|O_EXCL claim. It reports
// (false, nil) when another worker already holds the file.
func createLease(path string, data []byte) (bool, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if os.IsExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	_, werr := f.Write(data)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		// A half-written lease would only delay this spec by one TTL
		// (readers fall back to the file mtime); reclaim our own debris
		// eagerly instead.
		os.Remove(path)
		return false, werr
	}
	return true, nil
}

// leaseExpired reports whether the lease at path is past its
// deadline. An unparseable lease (a writer killed between create and
// write) falls back to the file mtime plus the TTL; a vanished lease
// reports false and the caller's next pass re-attempts the claim.
func leaseExpired(path string, ttl time.Duration) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var doc leaseDoc
	if json.Unmarshal(data, &doc) == nil && doc.DeadlineUnixNano != 0 {
		return time.Now().UnixNano() > doc.DeadlineUnixNano
	}
	fi, err := os.Stat(path)
	if err != nil {
		return false
	}
	return time.Since(fi.ModTime()) > ttl
}

// tryClaim attempts to claim fp for owner: first the O_EXCL fast
// path, then -- if the existing lease is expired -- a reap-and-retry.
// The reap renames the dead lease to a scratch name, which exactly
// one racing worker wins (rename removes the source atomically);
// losers simply report unclaimed and move on to the next spec.
// reclaimed is true when this call reaped an expired lease. The reaper
// usually holds the claim then, but a sibling's fast path can take the
// freed slot first; either way the spec was taken over exactly once.
func tryClaim(dir, fp, owner string, ttl time.Duration) (claimed, reclaimed bool, err error) {
	path := leasePath(dir, fp)
	data := leaseBytes(owner, fp, time.Now().Add(ttl))
	ok, err := createLease(path, data)
	if err != nil || ok {
		return ok, false, err
	}
	if !leaseExpired(path, ttl) {
		return false, false, nil
	}
	if !reapLease(path, path+".reap-"+sanitizeWorkerID(owner), ttl) {
		return false, false, nil
	}
	ok, err = createLease(path, data)
	return ok, true, err
}

// reapLease renames the lease at path, which its caller found expired,
// to the scratch name reap and deletes it, reporting whether it did.
// Between that expiry check and the rename, a sibling may have reaped
// the same dead lease and claimed the spec, or the holder may have
// renewed it, so the file the rename moved can be a live lease. In
// that case the lease is renamed back and the reap reports false;
// otherwise two workers would both hold the spec.
func reapLease(path, reap string, ttl time.Duration) bool {
	if os.Rename(path, reap) != nil {
		return false // another worker reaped first
	}
	if !leaseExpired(reap, ttl) {
		// Best effort: should the hand-back fail, the holder's next
		// heartbeat rewrites its lease.
		_ = os.Rename(reap, path)
		return false
	}
	os.Remove(reap)
	return true
}

// releaseLease removes a claim; missing files are fine (a reaper may
// have taken the lease from a worker that was merely slow).
func releaseLease(dir, fp string) { os.Remove(leasePath(dir, fp)) }

// heartbeatLease renews the lease at ttl/3 cadence until the returned
// stop function is called; stop blocks until the renewal goroutine
// has exited, so no renewal can land after the caller releases the
// lease. Renewals go through the atomic temp-file+rename writer, so a
// reader never sees a torn lease.
func heartbeatLease(dir, fp, owner string, ttl time.Duration) (stop func()) {
	interval := ttl / 3
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				// Best effort: a failed renewal only invites a reclaim,
				// and duplicate execution commits identical bytes.
				_ = writeFileAtomic(leasePath(dir, fp), leaseBytes(owner, fp, time.Now().Add(ttl)))
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// sanitizeWorkerID maps an arbitrary worker identity onto the
// filename-safe alphabet its stats file and reap-scratch names use.
func sanitizeWorkerID(id string) string {
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	out := b.String()
	if out == "" {
		out = "worker"
	}
	if len(out) > 64 {
		out = out[:64]
	}
	return out
}

// defaultWorkerID is the host-pid identity used when the caller does
// not name the worker.
func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return sanitizeWorkerID(fmt.Sprintf("%s-%d", host, os.Getpid()))
}

// specCost estimates one spec's relative execution cost: simulated
// hours, i.e. the workload horizon times the study scale (the
// generator clamps at the full horizon the same way). It only ranks
// claims, so it needs no calibration -- a scale-1.0 study costing
// ~100x a scale-0.01 one is all the signal required to start the
// longest studies first.
func specCost(spec StudySpec) float64 {
	cfg := spec.Config.normalized()
	h := defaultHorizonHours
	if cfg.Workload != nil && cfg.Workload.HorizonHours > 0 && cfg.Workload.HorizonHours < 1e9 {
		h = cfg.Workload.HorizonHours
	}
	c := h * cfg.Scale
	if c > h {
		c = h
	}
	return c
}

// defaultHorizonHours caches the calibrated workload's horizon (156 h
// in the paper) for cost estimation.
var defaultHorizonHours = workload.Default(0).HorizonHours

// specCosts estimates every spec in a sweep.
func specCosts(specs []StudySpec) []float64 {
	costs := make([]float64, len(specs))
	for i := range specs {
		costs[i] = specCost(specs[i])
	}
	return costs
}

// costOrder returns spec indices in descending estimated cost (ties
// by ascending index, so the order is deterministic across workers).
// Claiming in this order keeps the most expensive studies off the
// tail: the worst case for any claim order is one maximal spec
// started last, and starting it first bounds the drain's makespan by
// max(ideal, longest single spec).
func costOrder(costs []float64) []int {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	if costs == nil {
		return order
	}
	sort.SliceStable(order, func(a, b int) bool {
		return costs[order[a]] > costs[order[b]]
	})
	return order
}

// WorkerStats is one worker's throughput accounting within a run,
// persisted to its worker-<id>.json file and folded into the
// manifest's Workers map. Counters accumulate across resumes of the
// same worker id.
type WorkerStats struct {
	WorkerID string
	// Completed counts specs this worker committed.
	Completed int
	// SimSeconds is the simulated time those specs covered -- the
	// useful-work measure that exposes load imbalance even when spec
	// counts match.
	SimSeconds float64
	// WallSeconds is the worker's total wall time in the run loop.
	WallSeconds float64
	// Reclaims counts expired leases, left by a dead or stalled
	// worker, that this worker reaped.
	Reclaims int
}

// workerStatsPath is a worker's stats file inside the run directory.
func workerStatsPath(dir, id string) string {
	return filepath.Join(dir, "worker-"+sanitizeWorkerID(id)+".json")
}

// persistWorkerStats accumulates ws into the worker's stats file and
// rebuilds the manifest's Workers map from every worker file present,
// so "manifest.json" always reflects the run's per-worker throughput.
// Concurrent updaters converge: each rebuilds from the full set of
// worker files, so the last writer includes everyone.
func persistWorkerStats(dir string, ws WorkerStats) error {
	path := workerStatsPath(dir, ws.WorkerID)
	if data, err := os.ReadFile(path); err == nil {
		var prev WorkerStats
		if json.Unmarshal(data, &prev) == nil {
			ws.Completed += prev.Completed
			ws.SimSeconds += prev.SimSeconds
			ws.WallSeconds += prev.WallSeconds
			ws.Reclaims += prev.Reclaims
		}
	}
	data, err := json.MarshalIndent(&ws, "", "  ")
	if err != nil {
		return fmt.Errorf("core: store: encoding worker stats: %w", err)
	}
	if err := writeFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("core: store: persisting worker stats: %w", err)
	}
	return updateManifestWorkers(dir)
}

// loadWorkerStats reads every worker stats file in the run directory.
func loadWorkerStats(dir string) (map[string]WorkerStats, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "worker-*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]WorkerStats, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue // a concurrent writer is mid-rename; next update catches it
		}
		var ws WorkerStats
		if json.Unmarshal(data, &ws) != nil || ws.WorkerID == "" {
			continue
		}
		out[ws.WorkerID] = ws
	}
	return out, nil
}

// manifestLockFP is the pseudo-fingerprint whose lease serializes
// manifest rewrites, so concurrent finishing workers cannot lose each
// other's counters to a read-modify-write race.
const manifestLockFP = "manifest.workers"

// updateManifestWorkers rewrites the manifest with the Workers map
// rebuilt from the worker stats files. The spec-list fields are
// preserved verbatim; the manifest identity check ignores Workers.
// The rewrite runs under a short lease-file lock; if the lock cannot
// be won within its TTL (a locker died mid-update), the update
// proceeds anyway -- counters are accounting, never correctness, and
// the next finishing worker rebuilds them from the per-worker files.
func updateManifestWorkers(dir string) error {
	const lockTTL = 2 * time.Second
	deadline := time.Now().Add(lockTTL + time.Second)
	for {
		claimed, _, err := tryClaim(dir, manifestLockFP, "manifest-updater", lockTTL)
		if err != nil {
			return err
		}
		if claimed {
			defer releaseLease(dir, manifestLockFP)
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return fmt.Errorf("core: store: reading manifest for worker counters: %w", err)
	}
	var m storeManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("core: store: corrupt manifest in %s: %w", dir, err)
	}
	if m.Workers, err = loadWorkerStats(dir); err != nil {
		return err
	}
	out, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("core: store: encoding manifest: %w", err)
	}
	return writeFileAtomic(manifestPath(dir), append(out, '\n'))
}

// sweepStale cleans debris out of a run directory at store open:
// temp files and reap scratch older than the staleness threshold
// (left by killed commits, which would otherwise accumulate forever),
// and lease files whose outcome is already committed (a worker killed
// between commit and lease release). Live writers are safe: anything younger
// than the threshold is left alone, and a live lease is renewed --
// hence younger -- every ttl/3.
func sweepStale(store StoreConfig) {
	threshold := store.LeaseTTL
	if threshold < time.Minute {
		threshold = time.Minute
	}
	for _, pat := range []string{"*.tmp*", "*.lease.reap-*"} {
		paths, _ := filepath.Glob(filepath.Join(store.Dir, pat))
		for _, p := range paths {
			fi, err := os.Stat(p)
			if err != nil || time.Since(fi.ModTime()) <= threshold {
				continue
			}
			if os.Remove(p) == nil {
				store.logf("removed stale temp file %s (age %v)", filepath.Base(p), time.Since(fi.ModTime()).Round(time.Second))
			}
		}
	}
	leases, _ := filepath.Glob(filepath.Join(store.Dir, "*.lease"))
	for _, p := range leases {
		fp := strings.TrimSuffix(filepath.Base(p), ".lease")
		if _, err := os.Stat(outcomePath(store.Dir, fp)); err == nil {
			if os.Remove(p) == nil {
				store.logf("removed orphaned lease %s (outcome already committed)", filepath.Base(p))
			}
		}
	}
}
