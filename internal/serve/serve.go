// Package serve is the simulation-as-a-service daemon: the scenario
// engine and the persistent run store behind an HTTP/JSON API. A
// client POSTs a scenario spec (the internal/scenario schema, faults
// block and all) and gets a job id; it polls the job, follows its
// progress as a server-sent event stream, and fetches the finished
// report as plain text -- byte-identical to what `charisma -scenario`
// prints for the same spec.
//
// Jobs are content-addressed: the job id is a hash of the canonical
// spec plus the run store's code-version salt, and each job owns the
// run-store directory <root>/<id>. That makes the PR 5 fingerprint
// store a shared result cache: an identical spec from any client --
// this process, a restarted server, or another server sharing the
// directory tree -- maps to the same directory, and when every
// outcome file is already committed the job completes instantly from
// disk without simulating anything. Concurrent identical submissions
// coalesce onto one job; concurrent servers sharing a directory
// coordinate through the store's lease protocol exactly like CLI
// workers do.
//
// Execution is bounded: a fixed pool of executor goroutines drains a
// bounded queue, and a submission that finds the queue full is
// refused with 429 and a Retry-After header instead of being buffered
// without limit -- explicit backpressure, so a traffic spike degrades
// into retries rather than into an unbounded process. Shutdown stops
// intake, cancels the executors' context, and waits: an in-flight job
// finishes its current study, releases every lease it holds, and is
// marked failed; its committed outcomes stay in the store, so a
// resubmission after restart picks up exactly where it stopped.
package serve

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
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// Config shapes one server.
type Config struct {
	// Dir is the run-store root; each job runs in <Dir>/<jobID>. It is
	// created if absent.
	Dir string
	// Jobs is the executor-goroutine count -- the number of scenarios
	// simulating concurrently. <= 0 means 2. (Each job additionally
	// fans its studies across its spec's own worker count.)
	Jobs int
	// Queue bounds the jobs waiting for an executor; a submission
	// beyond it is refused with 429. <= 0 means 16.
	Queue int
	// LeaseTTL is the run store's work-claim TTL for job execution
	// (0 = core.DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Log, when non-nil, receives one line per lifecycle event (job
	// accepted, started, finished, store housekeeping). nil discards.
	Log io.Writer
}

// Job states, as reported in status documents and SSE events.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Event is one entry in a job's progress stream, delivered over SSE
// as `event: <Type>` with the JSON document as its data line.
type Event struct {
	// Seq numbers events within the job from 0; the SSE id field
	// carries it, so a reconnecting client can resume with ?from=.
	Seq int `json:"seq"`
	// Type is "queued", "started", "progress", "done", or "failed".
	Type string `json:"type"`
	// Done / Total count committed studies within the job.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Label and State describe one study on progress events: the
	// study's report label and how its outcome materialized
	// (core.StoreSpecRan / Skipped / Observed).
	Label string `json:"label,omitempty"`
	State string `json:"state,omitempty"`
	// Cached marks a done event served entirely from the store.
	Cached bool `json:"cached,omitempty"`
	// Error carries the failure reason on failed events.
	Error string `json:"error,omitempty"`
}

// Status is a job's externally visible state, returned by the submit
// and status endpoints.
type Status struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	State    string `json:"state"`
	// Cached reports that the job's result came from the store without
	// this job simulating anything.
	Cached bool `json:"cached"`
	// Done / Total count committed studies.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Error is the failure reason for failed jobs.
	Error string `json:"error,omitempty"`
}

// job is one submitted scenario and everything the server knows
// about it.
type job struct {
	id    string
	spec  *scenario.Spec
	total int

	mu      sync.Mutex
	state   string
	cached  bool
	err     string
	report  string
	done    int
	events  []Event
	updated chan struct{} // closed and replaced on every append
}

// newJob builds a job in the queued state with its initial event.
func newJob(id string, spec *scenario.Spec, total int) *job {
	j := &job{
		id: id, spec: spec, total: total,
		state:   StateQueued,
		updated: make(chan struct{}),
	}
	j.mu.Lock()
	j.appendLocked(Event{Type: StateQueued})
	j.mu.Unlock()
	return j
}

// appendLocked records one event (stamping its seq and running
// counts) and wakes every follower. The state change an event
// describes must happen under the same lock acquisition, so a
// follower's snapshot never sees a terminal state whose terminal
// event is missing.
func (j *job) appendLocked(ev Event) {
	ev.Seq = len(j.events)
	ev.Done, ev.Total = j.done, j.total
	j.events = append(j.events, ev)
	close(j.updated)
	j.updated = make(chan struct{})
}

// setProgress folds one store notification into the job and emits the
// matching progress event. It is the store's Progress hook and may be
// called from any worker goroutine.
func (j *job) setProgress(p core.StoreProgress) {
	j.mu.Lock()
	if p.Done > j.done {
		j.done = p.Done
	}
	j.appendLocked(Event{Type: "progress", Label: p.Label, State: p.State})
	j.mu.Unlock()
}

// start marks the job running.
func (j *job) start() {
	j.mu.Lock()
	j.state = StateRunning
	j.appendLocked(Event{Type: "started"})
	j.mu.Unlock()
}

// complete marks the job done with its report text.
func (j *job) complete(report string, cached bool) {
	j.mu.Lock()
	j.state = StateDone
	j.cached = cached
	j.report = report
	j.done = j.total
	j.appendLocked(Event{Type: StateDone, Cached: cached})
	j.mu.Unlock()
}

// fail marks the job failed. Failing a job twice (an interrupted run
// and the shutdown sweep racing) records one terminal state and two
// failure events, which followers tolerate.
func (j *job) fail(reason string) {
	j.mu.Lock()
	j.state = StateFailed
	j.err = reason
	j.appendLocked(Event{Type: StateFailed, Error: reason})
	j.mu.Unlock()
}

// status snapshots the job for JSON responses.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.id, Scenario: j.spec.Name, State: j.state,
		Cached: j.cached, Done: j.done, Total: j.total, Error: j.err,
	}
}

// snapshot returns the events from seq on, the current update channel
// (to wait on when the slice is exhausted), and whether the job is
// terminal.
func (j *job) snapshot(from int) (evs []Event, updated chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		evs = j.events[from:]
	}
	return evs, j.updated, j.state == StateDone || j.state == StateFailed
}

// Server is one serve daemon. Create with New, expose with Handler,
// stop with Shutdown.
type Server struct {
	cfg Config

	mu   sync.Mutex
	jobs map[string]*job

	queue   chan *job
	ctx     context.Context // cancelled by Shutdown; bounds job execution
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	drained chan struct{} // closed when every executor has exited

	// execGate, when non-nil, runs at the top of every job execution;
	// tests use it to hold a job mid-flight deterministically.
	execGate func(j *job)
}

// New validates the config, creates the store root, and starts the
// executor pool.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("serve: empty store directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 2
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		jobs:    make(map[string]*job),
		queue:   make(chan *job, cfg.Queue),
		ctx:     ctx,
		cancel:  cancel,
		drained: make(chan struct{}),
	}
	s.wg.Add(cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		go s.executor()
	}
	go func() {
		s.wg.Wait()
		close(s.drained)
	}()
	return s, nil
}

// logf writes one lifecycle line to the configured log sink.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, "serve: "+format+"\n", args...)
}

// JobKey is the content address of a scenario spec: a hash of its
// canonical JSON rendering salted with the run store's code-version
// salt. Identical specs -- regardless of field order or whitespace in
// the submitted body -- share a key, and a store-salt bump moves every
// key so stale directories are never revisited. The spec must be
// validated.
func JobKey(spec *scenario.Spec) (string, error) {
	canon, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("serve: canonicalizing spec: %w", err)
	}
	h := sha256.New()
	io.WriteString(h, core.StoreCodeSalt())
	h.Write([]byte{'\n'})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// jobStore is the run-store config for one job's directory.
func (s *Server) jobStore(j *job) core.StoreConfig {
	return core.StoreConfig{
		Dir:      filepath.Join(s.cfg.Dir, j.id),
		LeaseTTL: s.cfg.LeaseTTL,
		Log:      s.cfg.Log,
		Progress: j.setProgress,
	}
}

// submit registers a spec and returns its job. Resubmitting a known
// spec returns the existing job (running or finished) without
// touching the queue. A new spec whose run directory is already fully
// committed -- this server restarted, or another server populated the
// shared store -- completes instantly from disk. Otherwise the job is
// enqueued; a full queue refuses the submission with errBusy, and a
// shut-down server with errDraining.
func (s *Server) submit(spec *scenario.Spec) (*job, error) {
	id, err := JobKey(spec)
	if err != nil {
		return nil, err
	}
	total := spec.Studies()

	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		return j, nil
	}
	j := newJob(id, spec, total)
	s.jobs[id] = j
	s.mu.Unlock()

	// Cache probe before the queue: a fully committed directory means
	// the merged report is pure disk I/O, so it bypasses the worker
	// pool (and its backpressure) entirely.
	if res, err := core.MergeScenarioStore(spec, s.jobStore(j)); err == nil && res.Result != nil {
		j.complete(res.Result.Format(), true)
		s.logf("job %s (%s): served from store (%d studies, no simulation)", id, spec.Name, total)
		return j, nil
	}

	if s.ctx.Err() != nil {
		s.forget(j)
		return nil, errDraining
	}
	select {
	case s.queue <- j:
		s.logf("job %s (%s): queued (%d studies)", id, spec.Name, total)
		return j, nil
	default:
		s.forget(j)
		return nil, errBusy
	}
}

// forget removes a job that never entered the queue so a later
// resubmission can try again.
func (s *Server) forget(j *job) {
	s.mu.Lock()
	delete(s.jobs, j.id)
	s.mu.Unlock()
}

// errBusy and errDraining map to 429 and 503 in the HTTP layer.
var (
	errBusy     = errors.New("serve: job queue full")
	errDraining = errors.New("serve: server shutting down")
)

// lookup returns a job by id.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// statuses snapshots every job, for the list endpoint.
func (s *Server) statuses() []Status {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// executor drains the queue until Shutdown cancels the context.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one job through the persistent run store. The
// store's lease protocol coordinates with any other worker sharing
// the directory (another executor with an identical spec cannot
// happen -- submissions coalesce -- but another server process can);
// its Progress hook feeds the job's SSE stream; and on a cancelled
// context (Shutdown) the run returns after its in-flight study with
// every lease released, leaving committed outcomes for the next
// submission to resume from.
func (s *Server) runJob(j *job) {
	j.start()
	if s.execGate != nil {
		s.execGate(j)
	}
	if s.ctx.Err() != nil {
		j.fail("server shutting down before the job ran; committed studies remain cached")
		return
	}
	start := time.Now()
	res, err := core.RunScenarioStore(s.ctx, j.spec, s.jobStore(j))
	switch {
	case err != nil:
		s.logf("job %s (%s): failed: %v", j.id, j.spec.Name, err)
		j.fail(err.Error())
	case res.Result == nil:
		// Only a cancelled run leaves outcomes missing in lease mode.
		s.logf("job %s (%s): interrupted by shutdown with %d/%d studies committed",
			j.id, j.spec.Name, j.total-len(res.Merge.Missing), j.total)
		j.fail("server shut down mid-job; committed studies remain cached for resubmission")
	default:
		cached := len(res.Run.Ran) == 0
		s.logf("job %s (%s): done in %v (%d ran, %d cached, %d reclaimed)",
			j.id, j.spec.Name, time.Since(start).Round(time.Millisecond),
			len(res.Run.Ran), len(res.Run.Skipped), res.Run.Reclaims)
		j.complete(res.Result.Format(), cached)
	}
}

// Shutdown drains the server: submissions start failing, executors
// stop after their in-flight study (releasing every store lease), and
// queued jobs are failed. It returns nil once every executor has
// exited, or ctx's error if that takes longer than the caller allows.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
	select {
	case <-s.drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	// Executors are gone; nothing races the queue drain below, and any
	// job still queued or marked running (its executor returned without
	// finishing it) is failed so followers' streams terminate.
	for {
		select {
		case j := <-s.queue:
			j.fail("server shut down before the job ran; resubmit after restart")
		default:
			s.mu.Lock()
			jobs := make([]*job, 0, len(s.jobs))
			for _, j := range s.jobs {
				jobs = append(jobs, j)
			}
			s.mu.Unlock()
			for _, j := range jobs {
				j.mu.Lock()
				running := j.state == StateRunning
				j.mu.Unlock()
				if running {
					j.fail("server shut down mid-job; committed studies remain cached for resubmission")
				}
			}
			return nil
		}
	}
}
