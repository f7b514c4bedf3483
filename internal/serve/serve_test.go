// The serve suite drives the daemon exactly as a client would --
// through httptest and the HTTP handler, no real socket -- in the
// mock-transport style of the streaming-agent SDKs: deterministic
// gates instead of sleeps wherever the server exposes a seam.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// tinySpec is the corpus's canary scenario, the same file the CLI
// tests use.
const tinySpecPath = "../../testdata/scenarios/tiny-smoke.json"

func tinySpecBody(t *testing.T) []byte {
	t.Helper()
	body, err := os.ReadFile(tinySpecPath)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// expectedReport renders what `charisma -scenario` prints for a spec
// body -- the bytes every HTTP report must match.
func expectedReport(t *testing.T, body []byte) string {
	t.Helper()
	spec, err := scenario.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Format()
}

// newTestServer builds a server over a temp store and an httptest
// front end, both torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts
}

// postSpec submits a spec body and decodes the Status response.
func postSpec(t *testing.T, ts *httptest.Server, body []byte) (int, Status) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return resp.StatusCode, st
}

// pollUntil polls a job's status until cond holds or the deadline
// passes.
func pollUntil(t *testing.T, ts *httptest.Server, id string, cond func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func terminal(st Status) bool { return st.State == StateDone || st.State == StateFailed }

// fetchReport fetches a finished job's plain-text report.
func fetchReport(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("report content type %q, want text/plain", ct)
	}
	return string(body)
}

// readSSE consumes one events stream to EOF and returns the decoded
// events.
func readSSE(t *testing.T, ts *httptest.Server, id, query string) []Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("events status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestSubmitRunReport is the end-to-end happy path: submit the corpus
// canary, follow it to done, and read back the report -- byte-identical
// to the single-process scenario engine (and therefore to the CLI).
func TestSubmitRunReport(t *testing.T) {
	body := tinySpecBody(t)
	want := expectedReport(t, body)
	_, ts := newTestServer(t, Config{})

	code, st := postSpec(t, ts, body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	if st.ID == "" || st.Scenario != "tiny-smoke" || st.Total != 1 {
		t.Fatalf("submit status %+v", st)
	}

	final := pollUntil(t, ts, st.ID, terminal)
	if final.State != StateDone || final.Done != final.Total {
		t.Fatalf("final status %+v", final)
	}
	if final.Cached {
		t.Fatalf("fresh run reported cached: %+v", final)
	}
	if got := fetchReport(t, ts, st.ID); got != want {
		t.Fatalf("HTTP report differs from the scenario engine:\n%s\nvs\n%s", got, want)
	}

	// The report endpoint refused while the job was live; a bogus id is
	// a clean 404 on every endpoint.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/report", "/v1/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestSSEProgressStream pins the event stream's shape: queued,
// started, one progress event per study, and a terminal done event
// with increasing seqs -- then ?from= replays a suffix.
func TestSSEProgressStream(t *testing.T) {
	body := tinySpecBody(t)
	_, ts := newTestServer(t, Config{})
	_, st := postSpec(t, ts, body)
	pollUntil(t, ts, st.ID, terminal)

	evs := readSSE(t, ts, st.ID, "")
	if len(evs) < 3 {
		t.Fatalf("only %d events: %+v", len(evs), evs)
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d: %+v", i, ev.Seq, evs)
		}
	}
	if evs[0].Type != StateQueued {
		t.Fatalf("first event %+v, want queued", evs[0])
	}
	last := evs[len(evs)-1]
	if last.Type != StateDone || last.Done != last.Total {
		t.Fatalf("terminal event %+v, want done", last)
	}
	var progress int
	for _, ev := range evs {
		if ev.Type == "progress" {
			progress++
			if ev.Label == "" || ev.State != core.StoreSpecRan {
				t.Fatalf("progress event %+v, want a labeled %q study", ev, core.StoreSpecRan)
			}
		}
	}
	if progress != st.Total {
		t.Fatalf("%d progress events for %d studies", progress, st.Total)
	}

	// Resuming from the middle replays only the suffix, seqs intact.
	tail := readSSE(t, ts, st.ID, "?from=2")
	if len(tail) != len(evs)-2 || tail[0].Seq != 2 {
		t.Fatalf("?from=2 replayed %d events starting at seq %d, want %d from 2",
			len(tail), tail[0].Seq, len(evs)-2)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events?from=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?from=-1 = %d, want 400", resp.StatusCode)
	}
}

// TestCacheHitShortCircuit is the content-addressed cache contract: a
// second server over the same store directory answers an identical
// spec from disk -- 200, cached, and never touching an executor.
func TestCacheHitShortCircuit(t *testing.T) {
	body := tinySpecBody(t)
	want := expectedReport(t, body)
	dir := t.TempDir()

	_, ts1 := newTestServer(t, Config{Dir: dir})
	_, st1 := postSpec(t, ts1, body)
	pollUntil(t, ts1, st1.ID, terminal)
	ts1.Close()

	// The restarted server must not simulate: the gate fails the test
	// if any executor picks up a job.
	srv2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv2.execGate = func(j *job) { t.Errorf("cache hit reached an executor (job %s)", j.id) }
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Shutdown(context.Background())

	code, st2 := postSpec(t, ts2, body)
	if code != http.StatusOK {
		t.Fatalf("cached submit status %d, want 200", code)
	}
	if st2.State != StateDone || !st2.Cached || st2.ID != st1.ID {
		t.Fatalf("cached submit %+v (first job %s)", st2, st1.ID)
	}
	if got := fetchReport(t, ts2, st2.ID); got != want {
		t.Fatalf("cached report differs:\n%s\nvs\n%s", got, want)
	}

	// A cosmetically different rendering of the same spec -- reordered
	// keys, extra whitespace -- canonicalizes to the same job.
	var loose map[string]any
	if err := json.Unmarshal(body, &loose); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.MarshalIndent(loose, "  ", "    ")
	if err != nil {
		t.Fatal(err)
	}
	code, st3 := postSpec(t, ts2, reordered)
	if code != http.StatusOK || st3.ID != st1.ID || !st3.Cached {
		t.Fatalf("reordered spec: status %d, %+v, want cache hit on job %s", code, st3, st1.ID)
	}
}

// gatedSpec renders a tiny one-study spec whose seed makes it unique,
// so backpressure tests can fill the queue with distinct jobs.
func gatedSpec(seed int) []byte {
	return []byte(fmt.Sprintf(`{
		"version": 1,
		"name": "gated-%d",
		"seeds": [%d],
		"scales": [0.01],
		"workloads": [{"name": "w", "base": "empty", "jobs": {"status-check": 10}}]
	}`, seed, seed))
}

// TestBackpressure429 pins the explicit-backpressure contract: with
// one held executor and a one-deep queue, the third distinct job is
// refused with 429 and a Retry-After header, and succeeds once the
// gate lifts.
func TestBackpressure429(t *testing.T) {
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate()
	srv, ts := newTestServer(t, Config{Jobs: 1, Queue: 1})
	srv.execGate = func(*job) { <-gate }

	// Job A occupies the single executor (wait until it is actually
	// picked up, or it would still be filling the queue slot).
	_, stA := postSpec(t, ts, gatedSpec(1))
	pollUntil(t, ts, stA.ID, func(st Status) bool { return st.State == StateRunning })

	// Job B fills the queue.
	code, stB := postSpec(t, ts, gatedSpec(2))
	if code != http.StatusAccepted || stB.State != StateQueued {
		t.Fatalf("job B: status %d, %+v", code, stB)
	}

	// Job C is refused with explicit backpressure.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(gatedSpec(3))))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job C: status %d, body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", ra)
	}
	if _, ok := srv.lookup(jobKeyOf(t, gatedSpec(3))); ok {
		t.Fatal("refused job stayed registered; a retry would coalesce onto a dead job")
	}

	// Lifting the gate drains A then B; resubmitting C now succeeds.
	openGate()
	pollUntil(t, ts, stA.ID, terminal)
	pollUntil(t, ts, stB.ID, terminal)
	code, stC := postSpec(t, ts, gatedSpec(3))
	if code != http.StatusAccepted {
		t.Fatalf("job C retry: status %d, %+v", code, stC)
	}
	if st := pollUntil(t, ts, stC.ID, terminal); st.State != StateDone {
		t.Fatalf("job C retry ended %+v", st)
	}
}

// jobKeyOf computes the job key for a raw body, for test lookups.
func jobKeyOf(t *testing.T, body []byte) string {
	t.Helper()
	spec, err := scenario.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	id, err := JobKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestSubmitRejections covers the non-2xx submit paths: unparseable
// and invalid specs are 400s naming the problem, and a draining
// server refuses intake with 503.
func TestSubmitRejections(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	for _, bad := range []string{
		"{not json",
		`{"version": 99, "name": "x", "workloads": []}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad spec %q: status %d, want 400", bad, resp.StatusCode)
		}
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(tinySpecBody(t))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: status %d, want 503", resp.StatusCode)
	}
}

// multiStudySpec is a six-study scenario on one worker: long enough
// that a shutdown issued after the first commit lands mid-job.
const multiStudySpec = `{
	"version": 1,
	"name": "drain-me",
	"seeds": [1, 2, 3, 4, 5, 6],
	"scales": [0.01],
	"workers": 1,
	"workloads": [{"name": "w", "base": "empty", "jobs": {"status-check": 40, "bulk-dump": 2}}]
}`

// TestShutdownMidJobReleasesLeases is the graceful-drain contract:
// shutting down while a job is simulating stops it after its in-flight
// study with every store lease released, the job's stream terminates,
// and a resubmission against the same store resumes from the committed
// outcomes to the exact full report.
func TestShutdownMidJobReleasesLeases(t *testing.T) {
	body := []byte(multiStudySpec)
	want := expectedReport(t, body)
	dir := t.TempDir()

	srv, ts := newTestServer(t, Config{Dir: dir, Jobs: 1})
	_, st := postSpec(t, ts, body)
	// Wait for the first committed study so the shutdown is genuinely
	// mid-job, then drain.
	pollUntil(t, ts, st.ID, func(s Status) bool { return s.Done >= 1 || terminal(s) })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	final := pollUntil(t, ts, st.ID, terminal)
	if final.State == StateFailed && !strings.Contains(final.Error, "resubmission") {
		t.Fatalf("failure reason %q does not point at resubmission", final.Error)
	}
	// The terminal event reached the stream (the SSE read returns
	// because the stream is terminal, not because we time out).
	evs := readSSE(t, ts, st.ID, "")
	if lt := evs[len(evs)-1].Type; lt != StateFailed && lt != StateDone {
		t.Fatalf("stream's last event is %q, want terminal", lt)
	}
	// Every lease is released, machine-wide: no claim survives under
	// any job directory.
	leases, _ := filepath.Glob(filepath.Join(dir, "*", "*.lease"))
	if len(leases) != 0 {
		t.Fatalf("leases survived shutdown: %v", leases)
	}

	// A fresh server over the same store resumes the job from its
	// committed outcomes and produces the exact single-process report.
	_, ts2 := newTestServer(t, Config{Dir: dir, Jobs: 1})
	_, st2 := postSpec(t, ts2, body)
	if st2.ID != st.ID {
		t.Fatalf("resubmission got job %s, want the content address %s", st2.ID, st.ID)
	}
	if f := pollUntil(t, ts2, st2.ID, terminal); f.State != StateDone {
		t.Fatalf("resumed job ended %+v", f)
	}
	if got := fetchReport(t, ts2, st2.ID); got != want {
		t.Fatalf("resumed report differs from the single-process run:\n%s\nvs\n%s", got, want)
	}
}

// TestCoalescedSubmissions: two in-flight submissions of one spec are
// one job -- the second returns the first's id without queueing
// anything.
func TestCoalescedSubmissions(t *testing.T) {
	gate := make(chan struct{})
	srv, ts := newTestServer(t, Config{Jobs: 1, Queue: 4})
	srv.execGate = func(*job) { <-gate }
	defer close(gate)

	_, st1 := postSpec(t, ts, gatedSpec(9))
	code, st2 := postSpec(t, ts, gatedSpec(9))
	if code != http.StatusAccepted || st2.ID != st1.ID {
		t.Fatalf("duplicate submit: status %d, job %s, want %s", code, st2.ID, st1.ID)
	}
	srv.mu.Lock()
	n := len(srv.jobs)
	srv.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d jobs registered for one spec", n)
	}
}

// TestHealthz pins the liveness probe.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || doc.Status != "ok" {
		t.Fatalf("healthz: %d, %+v", resp.StatusCode, doc)
	}
}
