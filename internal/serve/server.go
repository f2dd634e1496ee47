// HTTP surface of the job daemon. Endpoints (all JSON):
//
//	POST   /v1/jobs                      submit  -> 202 JobView (400 invalid, 429 + Retry-After
//	                                               when the queue is full, 503 draining, 500 internal)
//	GET    /v1/jobs                      list    -> {"jobs":[JobView...]}, the retained jobs; optional
//	                                               ?state= ?type= filters (400 on an unknown
//	                                               state, type or query parameter)
//	GET    /v1/jobs/{id}                 status  -> JobView ("cached": true when served from cache)
//	POST   /v1/jobs/{id}/cancel         cancel  -> 202 JobView
//	GET    /v1/jobs/{id}/values          results -> {"id":...,"lines":[...],"values":{...}}
//	GET    /v1/jobs/{id}/progress        NDJSON event stream until the job ends
//	GET    /v1/jobs/{id}/artifacts/{kind} Chrome trace / JSON report (410 once the artifact
//	                                               budget has evicted them; /values still answers)
//	GET    /v1/experiments               registered experiment IDs
//	GET    /v1/cache                     result-cache stats: entries, capacity, hits, misses,
//	                                               coalesced, evictions ({"enabled":false} when off),
//	                                               and artifactBytes, artifactBudget,
//	                                               artifactEvictions (counted either way)
//	GET    /healthz                      liveness + drain state
//
// Every per-job route answers 404 for an ID never issued and 410 Gone
// for a finished job the scheduler no longer retains (retain.go).
//
// Artifact and values bytes come from the same exporters the CLI uses,
// so they are byte-identical to a local run with the same parameters.
// A job renders its values body and an observed job its artifacts once,
// when its run completes; every fetch from that job, from a cache hit
// on it, or from a follower coalesced onto it serves those same bytes,
// until the artifact budget (cache.go) evicts the artifacts.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"accelflow/internal/experiments"
	"accelflow/internal/obs"
)

// Server routes the HTTP API onto a Scheduler.
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
	// heartbeat is the progress-stream keep-alive interval (see
	// handleProgress); SetHeartbeat overrides the 15s default.
	heartbeat time.Duration
}

// NewServer builds the route table.
func NewServer(sched *Scheduler) *Server {
	s := &Server{sched: sched, mux: http.NewServeMux(), heartbeat: 15 * time.Second}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/values", s.handleValues)
	s.mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleProgress)
	s.mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{kind}", s.handleArtifact)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/cache", s.handleCache)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// SetHeartbeat overrides the progress-stream keep-alive interval (the
// daemon's -heartbeat flag; tests shrink it). d <= 0 disables
// heartbeats.
func (s *Server) SetHeartbeat(d time.Duration) { s.heartbeat = d }

// Handler returns the root handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// maxBody bounds submit payloads; job requests are tiny.
const maxBody = 1 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) retryAfterSeconds() string {
	secs := int(s.sched.Config().RetryAfter.Seconds())
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad job request: %w", err))
		return
	}
	j, err := s.sched.Submit(req)
	if err != nil {
		code := submitErrorStatus(err)
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			// Admission control: tell the client when to come back
			// instead of letting the backlog grow.
			w.Header().Set("Retry-After", s.retryAfterSeconds())
		}
		writeError(w, code, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// submitErrorStatus maps a Submit error to its HTTP status. Only errors
// matching ErrBadRequest are client errors — anything unrecognized is
// an internal failure and surfaces as 500, never 400.
func submitErrorStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// handleList returns the retained jobs in submission order. Optional
// query filters compose conjunctively: ?state= (queued, running, done,
// failed, cancelled) and ?type= (experiment, observed, tune). Any other
// query parameter, and an unknown state or type value, is a 400, not
// an unfiltered or empty result, so typos fail loudly.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state, typ := JobState(q.Get("state")), q.Get("type")
	delete(q, "state")
	delete(q, "type")
	if len(q) > 0 {
		var names []string
		for name := range q {
			names = append(names, name)
		}
		sort.Strings(names)
		writeError(w, http.StatusBadRequest, badRequestf("serve: unknown query parameters %q; GET /v1/jobs filters on state and type only", names))
		return
	}
	switch state {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
	default:
		writeError(w, http.StatusBadRequest, badRequestf("serve: unknown state filter %q", state))
		return
	}
	switch typ {
	case "", JobExperiment, JobObserved, JobTune:
	default:
		writeError(w, http.StatusBadRequest, badRequestf("serve: unknown type filter %q", typ))
		return
	}

	jobs := s.sched.Jobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		v := j.snapshot()
		if state != "" && v.State != state {
			continue
		}
		if typ != "" && v.Type != typ {
			continue
		}
		views = append(views, v)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// job resolves the {id} path segment, writing the error itself when
// no job is retained under it: 410 for an evicted job, 404 for an ID
// never issued.
func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	j, err := s.sched.Get(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrEvicted):
		writeError(w, http.StatusGone, err)
	case err != nil:
		writeError(w, http.StatusNotFound, err)
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

func (s *Server) handleValues(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	body, state := j.values()
	if !state.Terminal() {
		writeError(w, http.StatusConflict,
			fmt.Errorf("serve: job %s is %s; values are available once it finishes", j.ID, state))
		return
	}
	if state != StateDone {
		writeError(w, http.StatusConflict,
			fmt.Errorf("serve: job %s finished %s and produced no values", j.ID, state))
		return
	}
	// The rest of the body was rendered when the run finished; only the
	// id member is per job. Job IDs are "job-N", which strconv quotes
	// exactly as encoding/json does.
	head := strconv.AppendQuote([]byte(`{"id":`), j.ID)
	head = append(head, ',')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(body)))
	_, _ = w.Write(head)
	_, _ = w.Write(body)
}

// handleProgress streams the job's events as NDJSON (one JSON object
// per line), flushing after every event, until the job reaches a
// terminal state or the client goes away. Reading the stream to EOF is
// therefore a completion barrier: the last event line is the "done"
// event.
//
// Stream contract: every job-event line carries an "event" field.
// While the job is idle (a long simulation emits no cell events for a
// while) the stream additionally emits a keep-alive line
// {"type":"heartbeat"} every heartbeat interval and flushes it, so
// proxies and load balancers with idle timeouts keep the connection
// open. Heartbeats carry no job state, are not part of the event
// sequence (no "seq"), and may appear between any two events —
// clients must skip lines with a "type" field.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var beat <-chan time.Time
	if s.heartbeat > 0 {
		t := time.NewTicker(s.heartbeat)
		defer t.Stop()
		beat = t.C
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	next := 0
	for {
		evs, more, terminal := j.eventsSince(next)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		next += len(evs)
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-more:
		case <-beat:
			if _, err := io.WriteString(w, "{\"type\":\"heartbeat\"}\n"); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	kind := obs.Artifact(r.PathValue("kind"))
	known := false
	for _, a := range obs.Artifacts() {
		if a == kind {
			known = true
		}
	}
	if !known {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown artifact %q (want trace or report)", kind))
		return
	}
	b, state, evicted := j.artifact(kind)
	if !state.Terminal() {
		writeError(w, http.StatusConflict,
			fmt.Errorf("serve: job %s is %s; artifacts are available once it finishes", j.ID, state))
		return
	}
	if evicted {
		writeError(w, http.StatusGone, ErrArtifactsEvicted)
		return
	}
	if b == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("serve: job %s has no %s artifact (only successful observed jobs export artifacts)", j.ID, kind))
		return
	}
	// The bytes were rendered when the run finished and are never
	// written again, so concurrent downloads share them, and one that
	// began before the budget revoked them still writes them whole. A
	// write error means the client went away; there is no one left to
	// report it to.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s-%s.json", j.ID, kind))
	_, _ = w.Write(b)
}

// handleCache reports result-cache statistics; a daemon started with
// -cache 0 answers {"enabled": false}, and only its artifact counters
// move.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	stats, ok := s.sched.CacheStats()
	writeJSON(w, http.StatusOK, map[string]any{"enabled": ok, "stats": stats})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"experiments": experiments.IDs()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.sched.Draining(),
	})
}
