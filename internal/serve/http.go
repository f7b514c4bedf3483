// The HTTP surface of the serve daemon: a small JSON API plus one
// server-sent-events stream per job. The SSE framing follows the
// standard `id:`/`event:`/`data:` wire format (the event-delivery
// shape of streaming agent transports), flushing after every event so
// a client sees each study land as it commits.
//
//	POST /v1/jobs             submit a scenario spec; 202 JSON Status
//	                          (200 when the job already exists or is
//	                          served from the store; 429 + Retry-After
//	                          when the queue is full)
//	GET  /v1/jobs             list known jobs
//	GET  /v1/jobs/{id}        one job's Status
//	GET  /v1/jobs/{id}/events SSE progress stream (?from=N to resume)
//	GET  /v1/jobs/{id}/report the finished report, text/plain --
//	                          byte-identical to `charisma -scenario`
//	GET  /v1/healthz          liveness probe
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/scenario"
)

// maxSpecBytes bounds a submitted spec body. The scenario schema's
// own limits keep a valid spec far below this; the bound only stops a
// hostile client from streaming an unbounded body.
const maxSpecBytes = 1 << 20

// retryAfter is the backoff, in the header's whole seconds, that a 429
// response advertises.
const retryAfter = "1"

// Handler returns the server's HTTP interface. It is safe to serve
// from multiple listeners, and tests drive it through httptest
// without a socket.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	return mux
}

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON writes one JSON document with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes a JSON error response.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit parses, validates, and registers a scenario spec.
// Validation failures are the client's fault (400); a full queue is
// explicit backpressure (429 + Retry-After); a draining server
// refuses intake (503).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "reading spec: %v", err)
		return
	}
	spec, err := scenario.Parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.submit(spec)
	switch {
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests, "job queue full (%d executing, %d queued); retry shortly", s.cfg.Jobs, s.cfg.Queue)
		return
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := j.status()
	code := http.StatusAccepted
	if st.State == StateDone || st.State == StateFailed {
		// The submission was answered without new work: a coalesced
		// earlier job or a store cache hit.
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// handleList returns every known job's status.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statuses())
}

// handleStatus returns one job's status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleReport returns the finished report as plain text, exactly the
// bytes `charisma -scenario` prints for the same spec.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	state, report, reason := j.state, j.report, j.err
	j.mu.Unlock()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, report)
	case StateFailed:
		writeError(w, http.StatusConflict, "job failed: %s", reason)
	default:
		writeError(w, http.StatusConflict, "job is %s; follow /v1/jobs/%s/events or retry once done", state, j.id)
	}
}

// handleEvents streams a job's progress as server-sent events: every
// recorded event from ?from= (default 0) replays immediately, then
// new events flush as they land, and the stream closes after the
// terminal done/failed event. The write loop never blocks on the
// job -- it waits on the job's update channel, the client's
// disconnect, or server shutdown, whichever comes first.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad from %q (want a non-negative event seq)", v)
			return
		}
		from = n
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	next := from
	// shutdown fires at most once: Shutdown fails every live job
	// (appending its terminal event), so after observing it the loop
	// only needs the job's own updates. A nil channel never fires.
	shutdown := s.ctx.Done()
	for {
		evs, updated, terminal := j.snapshot(next)
		for _, ev := range evs {
			if err := writeSSE(w, ev); err != nil {
				return
			}
			next = ev.Seq + 1
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		case <-shutdown:
			shutdown = nil
		}
	}
}

// writeSSE frames one event on the wire: id, event type, and the JSON
// document as the data line (json.Marshal never emits raw newlines,
// so the data fits one line).
func writeSSE(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}

// handleHealth is the liveness probe: 200 and a tiny JSON document
// once the server is accepting work.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "jobs": n})
}
