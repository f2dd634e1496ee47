// Package serve turns the batch simulator into a long-running service:
// an in-process scheduler admits simulation jobs into a bounded queue,
// runs them on a fixed worker pool with per-job context cancellation,
// and an HTTP layer (server.go) exposes the job lifecycle — submit,
// status, cancel, result values, artifact download, and an NDJSON
// per-cell progress stream.
//
// One request path serves both binaries. A JobRequest describes every
// run: accelsimd decodes it from the POST /v1/jobs body, and accelsim
// builds it from its flags. Both check it with JobRequest.Validate and
// execute it through Run (run.go), which owns the mapping onto
// experiments.Options, workload.ObservedParams and tune.Params and
// assembles each job type's values, lines and artifacts. What differs
// between the callers — the -check flag, the daemon's progress hooks,
// the CLI's tune snapshots — travels in Env and never
// changes a byte of output. Values and artifact bytes therefore depend
// only on the request, never on the binary, the transport, queueing
// delay, or concurrent jobs; determinism_test.go pins this against
// direct in-process runs.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"accelflow/internal/control"
	"accelflow/internal/experiments"
	"accelflow/internal/obs"
	"accelflow/internal/tune"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job types.
const (
	// JobExperiment runs one experiments.Registry entry.
	JobExperiment = "experiment"
	// JobObserved runs the canonical observed SocialNetwork mix
	// (workload.BuildObserved) and keeps its trace/report artifacts.
	JobObserved = "observed"
	// JobTune runs a closed-loop design-space search (tune.Run),
	// streaming per-generation progress events.
	JobTune = "tune"
)

// JobRequest describes one run: the POST /v1/jobs body for accelsimd,
// and what accelsim builds from its flags.
type JobRequest struct {
	// Type is "experiment", "observed", or "tune".
	Type string `json:"type"`
	// Experiment names the Registry entry for experiment jobs.
	Experiment string `json:"experiment,omitempty"`
	// Requests, Seed, Quick, Parallelism mirror the CLI's -n, -seed,
	// -quick and -parallel flags (zero values take the same defaults).
	Requests    int   `json:"requests,omitempty"`
	Seed        int64 `json:"seed,omitempty"`
	Quick       bool  `json:"quick,omitempty"`
	Parallelism int   `json:"parallelism,omitempty"`
	// Fault knobs, observed jobs only; they mirror -faults,
	// -faultwindow (in microseconds) and -faultloss.
	FaultRate     float64 `json:"faultRate,omitempty"`
	FaultWindowUs float64 `json:"faultWindowUs,omitempty"`
	FaultLoss     float64 `json:"faultLoss,omitempty"`
	// Control attaches the dynamic-control subsystem (autoscaler,
	// shedding, retry budgets) to an observed job; it mirrors the
	// CLI's -ctl* flags. Observed jobs only, like the fault knobs.
	// The spec joins the job's ResultKey, so controlled jobs never
	// collide with uncontrolled cache entries.
	Control *control.Spec `json:"control,omitempty"`
	// Tune knobs, tune jobs only; they mirror the CLI's -tune* flags.
	// Objective is "p99", "energy", or "costperf"; Space is the
	// searched dimensions (nil takes tune.DefaultSpace);
	// Generations/Patience bound the search; SLOUs and LoadScale shape
	// the evaluation workload. Zero values take the tune package
	// defaults.
	Objective   string          `json:"objective,omitempty"`
	Space       *tune.SpaceSpec `json:"space,omitempty"`
	Generations int             `json:"generations,omitempty"`
	Patience    int             `json:"patience,omitempty"`
	SLOUs       float64         `json:"sloUs,omitempty"`
	LoadScale   float64         `json:"loadScale,omitempty"`
}

// knobs lists the type-specific request fields: the job type each one
// belongs to, the JSON names an error about it reports, and a copy of
// it from one request to another. Generations and patience share one
// range check, so they form one knob.
var knobs = []struct {
	typ    string
	fields []string
	copy   func(dst, src *JobRequest)
}{
	{JobExperiment, []string{"experiment"}, func(d, s *JobRequest) { d.Experiment = s.Experiment }},
	{JobObserved, []string{"faultRate"}, func(d, s *JobRequest) { d.FaultRate = s.FaultRate }},
	{JobObserved, []string{"faultWindowUs"}, func(d, s *JobRequest) { d.FaultWindowUs = s.FaultWindowUs }},
	{JobObserved, []string{"faultLoss"}, func(d, s *JobRequest) { d.FaultLoss = s.FaultLoss }},
	{JobObserved, []string{"control"}, func(d, s *JobRequest) { d.Control = s.Control }},
	{JobTune, []string{"objective"}, func(d, s *JobRequest) { d.Objective = s.Objective }},
	{JobTune, []string{"generations", "patience"}, func(d, s *JobRequest) { d.Generations, d.Patience = s.Generations, s.Patience }},
	{JobTune, []string{"sloUs"}, func(d, s *JobRequest) { d.SLOUs = s.SLOUs }},
	{JobTune, []string{"loadScale"}, func(d, s *JobRequest) { d.LoadScale = s.LoadScale }},
	{JobTune, []string{"space"}, func(d, s *JobRequest) { d.Space = s.Space }},
}

// Validate rejects requests no run should accept: unknown types,
// unresolvable experiment IDs, negative budgets, knobs on a job type
// that cannot honour them, and out-of-range knob values (checked by
// workload.ObservedParams.Validate and tune.Params.Validate). Every
// error it returns matches ErrBadRequest (errors.Is), which is what
// routes it to HTTP 400; an error from any other Submit stage
// deliberately does not. An error about particular fields also reports
// their JSON names through a Fields() []string method, which accelsim
// maps onto its flag names.
func (r JobRequest) Validate() error {
	switch r.Type {
	case JobExperiment, JobObserved, JobTune:
	default:
		return fieldErrorf("type", "serve: job type must be %q, %q, or %q, got %q", JobExperiment, JobObserved, JobTune, r.Type)
	}
	switch {
	case r.Requests < 0:
		return fieldErrorf("requests", "serve: requests must be non-negative, got %d", r.Requests)
	case r.Parallelism < 0:
		return fieldErrorf("parallelism", "serve: parallelism must be non-negative, got %d", r.Parallelism)
	}
	// The knobs that are set join one at a time and the type's checks
	// rerun after each, so an error names the knob that broke them; a
	// check spanning knobs (the fault-window cap needs the rate) names
	// the last one it needed. Another type's knob is an error if set.
	var own, set JobRequest
	own.Type = r.Type
	for _, k := range knobs {
		set = JobRequest{}
		if k.copy(&set, &r); set == (JobRequest{}) {
			continue // unset: the default
		}
		if k.typ != r.Type {
			return &requestError{fields: k.fields,
				msg: fmt.Sprintf("serve: %s applies only to %s jobs", strings.Join(k.fields, "/"), k.typ)}
		}
		k.copy(&own, &r)
		if err := own.checkKnobs(); err != nil {
			return &requestError{fields: k.fields, msg: err.Error()}
		}
	}
	if own == (JobRequest{Type: r.Type}) {
		// No knob set: the defaults must pass on their own, and an
		// experiment job has no default ID.
		if err := own.checkKnobs(); err != nil {
			return badRequestf("%s", err)
		}
	}
	return nil
}

// checkKnobs runs the job type's own checks on the knobs set so far.
func (r JobRequest) checkKnobs() error {
	switch r.Type {
	case JobExperiment:
		if r.Experiment == "" {
			return errors.New("serve: experiment job needs an experiment ID (see GET /v1/experiments)")
		}
		if _, ok := experiments.Registry[r.Experiment]; !ok {
			return fmt.Errorf("serve: unknown experiment %q", r.Experiment)
		}
		return nil
	case JobObserved:
		return r.observedParams(Env{}).Validate()
	}
	return r.tuneParams(Env{}).Validate()
}

// ResultKey is the content-addressed identity of the job's result:
// two requests with equal keys produce byte-identical values, lines,
// and artifacts, so the scheduler caches and coalesces on it. Each job
// type hashes only its result-affecting parameters, normalized, without
// building anything it would run: experiment jobs their raw parameter
// tuple, observed jobs workload.ObservedParams.Key, tune jobs their
// search signature. Parallelism is an execution knob that provably never
// changes bytes, and everything in Env is observe-only, so neither
// joins. Empty means "not cacheable" (never the case for a validated
// request).
func (r JobRequest) ResultKey() string {
	switch r.Type {
	case JobExperiment:
		sum := sha256.Sum256([]byte(fmt.Sprintf("experiment|%s|requests=%d|seed=%d|quick=%t",
			r.Experiment, r.Requests, r.Seed, r.Quick)))
		return "exp|" + hex.EncodeToString(sum[:])
	case JobObserved:
		key, err := r.observedParams(Env{}).Key()
		if err != nil {
			return ""
		}
		return "obs|" + key
	case JobTune:
		sig, err := r.tuneParams(Env{}).Signature()
		if err != nil {
			return ""
		}
		return "tune|" + sig
	}
	return ""
}

// Event is one NDJSON progress record on GET /v1/jobs/{id}/progress.
type Event struct {
	Seq   int    `json:"seq"`
	Job   string `json:"job"`
	Event string `json:"event"` // queued | started | cell | generation | done
	// State is set on "done" events (done/failed/cancelled).
	State JobState `json:"state,omitempty"`
	// Key/Index/Total identify the finished sweep cell on "cell"
	// events; Done counts cells finished so far. A tune job's cells are
	// the evaluations it runs: revisits served from the search's memo
	// run nothing and send no event, and Index/Total are positions in
	// the generation's batch of misses.
	Key   string `json:"key,omitempty"`
	Index int    `json:"index,omitempty"`
	Total int    `json:"total,omitempty"`
	Done  int    `json:"done,omitempty"`
	Error string `json:"error,omitempty"`
	// Tune carries the per-generation search progress on "generation"
	// events (tune jobs only): best-so-far, frontier, evaluation and
	// cache-hit counts.
	Tune *tune.Progress `json:"tune,omitempty"`
}

// JobView is the status JSON for one job.
type JobView struct {
	ID         string   `json:"id"`
	Type       string   `json:"type"`
	Experiment string   `json:"experiment,omitempty"`
	State      JobState `json:"state"`
	Error      string   `json:"error,omitempty"`
	// CellsDone counts finished sweep cells: for a tune job, the
	// evaluations it ran, leaving out revisits served from its memo.
	CellsDone int `json:"cellsDone"`
	// Cached marks a job served from the content-addressed result
	// cache (directly or by coalescing onto an identical in-flight
	// run) instead of executing.
	Cached bool `json:"cached"`
	// Artifacts lists downloadable exports once the job is done
	// (observed jobs only, whether run or served from cache), until the
	// artifact budget evicts them.
	Artifacts   []string  `json:"artifacts,omitempty"`
	SubmittedAt time.Time `json:"submittedAt"`
	StartedAt   time.Time `json:"startedAt,omitempty"`
	FinishedAt  time.Time `json:"finishedAt,omitempty"`
}

// Job is one admitted simulation run. All mutable state sits behind mu;
// the HTTP layer only reads through snapshot/eventsSince/results/
// artifact.
type Job struct {
	ID  string
	Req JobRequest

	// num is the job's number, the N of its "job-N" ID, and table the
	// scheduler's index, which finishLocked tells the job has ended.
	num   int64
	table *jobTable

	// flight is the job's singleflight entry when it was admitted as a
	// cacheable leader (nil otherwise); its key is the job's result key.
	// Written once under the scheduler lock before the job is queued;
	// read-only after.
	flight *flight

	mu        sync.Mutex
	state     JobState
	errMsg    string
	cancel    func() // non-nil while running
	cellsDone int
	// result is the finished job's values, lines, and artifact bytes
	// (nil until it succeeds). Set once, and shared read-only with its
	// cache entry and coalesced followers; the artifact budget may
	// revoke its artifacts (cache.go).
	result *jobResultEntry
	// cached marks completion from the result cache.
	cached bool
	events []Event
	// updated is closed and replaced on every emit, so progress
	// streamers can wait for new events without polling.
	updated chan struct{}
	// done is closed when the job reaches a terminal state.
	done chan struct{}

	submitted, started, finished time.Time
}

func newJob(table *jobTable, num int64, req JobRequest) *Job {
	j := &Job{
		ID:        jobID(num),
		Req:       req,
		num:       num,
		table:     table,
		state:     StateQueued,
		updated:   make(chan struct{}),
		done:      make(chan struct{}),
		submitted: time.Now(),
	}
	j.emitLockedOrNot(Event{Event: "queued"})
	return j
}

// emitLockedOrNot appends a progress event. Callers holding mu pass
// through appendEvent; newJob is the only caller before the job is
// shared, so it can emit without the lock.
func (j *Job) emitLockedOrNot(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEvent(ev)
}

// appendEvent requires mu.
func (j *Job) appendEvent(ev Event) {
	ev.Seq = len(j.events)
	ev.Job = j.ID
	j.events = append(j.events, ev)
	close(j.updated)
	j.updated = make(chan struct{})
}

// start transitions queued -> running and installs the cancel hook.
// It returns false when the job was cancelled while queued, telling
// the worker to skip it.
func (j *Job) start(cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	j.started = time.Now()
	j.appendEvent(Event{Event: "started"})
	return true
}

// finish moves the job to a terminal state (idempotent: the first
// transition wins) and wakes everyone waiting on it.
func (j *Job) finish(state JobState, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(state, errMsg)
}

// finishLocked requires mu. A leader that fails or is cancelled
// retires its flight before done closes, so a client that waits for
// the outcome and resubmits starts a fresh run instead of joining this
// dead one, and its followers report the same outcome. The finished
// job also counts toward the scheduler's retention bound before done
// closes, so the older finished job that this may evict (retain.go)
// already answers ErrEvicted to a client woken by "done".
func (j *Job) finishLocked(state JobState, errMsg string) {
	if j.state.Terminal() {
		return
	}
	var followers []*Job
	if state != StateDone && j.flight != nil {
		followers = j.flight.retire()
	}
	j.state = state
	j.errMsg = errMsg
	j.cancel = nil
	j.finished = time.Now()
	j.table.finished(j)
	j.appendEvent(Event{Event: "done", State: state, Error: errMsg})
	close(j.done)
	for _, fo := range followers {
		fo.finish(state, errMsg)
	}
}

// requestCancel cancels the job: a queued job dies immediately, a
// running one has its context cancelled and finishes through the
// worker's error path.
func (j *Job) requestCancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.finishLocked(StateCancelled, "cancelled before start")
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
}

// completeCached finishes the job from a cache entry, emitting the
// same started/done event sequence a run would so the progress-stream
// contract (EOF after the "done" event) holds for cached jobs. The
// entry is shared read-only. A job already terminal
// (e.g. a coalesced follower cancelled while its leader ran) is left
// untouched.
func (j *Job) completeCached(e *jobResultEntry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	if j.state == StateQueued {
		j.state = StateRunning
		j.started = time.Now()
		j.appendEvent(Event{Event: "started"})
	}
	j.cached = true
	j.result = e
	j.finishLocked(StateDone, "")
}

// cacheEntry returns a successful job's result (nil unless the job is
// done).
func (j *Job) cacheEntry() *jobResultEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil
	}
	return j.result
}

// cellDone is the experiments.Options.OnCell hook; it runs on sweep
// worker goroutines.
func (j *Job) cellDone(ev experiments.CellEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cellsDone++
	e := Event{Event: "cell", Key: ev.Key, Index: ev.Index, Total: ev.Total, Done: j.cellsDone}
	if ev.Err != nil {
		e.Error = ev.Err.Error()
	}
	j.appendEvent(e)
}

// generationDone is the tune.Hooks.OnGeneration hook: one "generation"
// event per completed search generation, from the driver goroutine.
func (j *Job) generationDone(pr tune.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEvent(Event{Event: "generation", Tune: &pr})
}

// setResult stores the finished run's outputs; call before finish.
func (j *Job) setResult(e *jobResultEntry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.result = e
}

// renderValues renders the GET /values body that follows its leading
// {"id":..., member: the "lines" and "values" members and the closing
// brace, byte for byte as json.Encoder writes them (keys sorted, HTML
// left unescaped, trailing newline). A non-finite value has no JSON
// encoding; the error names
// every key that holds one. The daemon renders once, when the run
// completes, so every fetch — cold, cached, or coalesced — writes the
// same immutable bytes.
func renderValues(values map[string]float64, lines []string) ([]byte, error) {
	var bad []string
	// order-insensitive: the bad keys are sorted below.
	for k, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, fmt.Sprintf("%q is %v", k, v))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return nil, fmt.Errorf("serve: values have no JSON encoding: %s", strings.Join(bad, ", "))
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(struct {
		Lines  []string           `json:"lines"`
		Values map[string]float64 `json:"values"`
	}{lines, values}); err != nil {
		return nil, fmt.Errorf("serve: render values: %w", err)
	}
	return buf.Bytes()[1:], nil
}

// renderArtifacts renders each export of a finished observed run to
// bytes. The daemon does this once, when the run completes, so the
// sink can be released and every download — cold, cached, or
// coalesced — serves the same immutable bytes.
func renderArtifacts(sink *obs.Sink) (map[obs.Artifact][]byte, error) {
	arts := make(map[obs.Artifact][]byte, len(obs.Artifacts()))
	for _, a := range obs.Artifacts() {
		b, err := sink.RenderArtifact(a)
		if err != nil {
			return nil, fmt.Errorf("serve: render %s artifact: %w", a, err)
		}
		arts[a] = b
	}
	return arts, nil
}

// snapshot returns the status view.
func (j *Job) snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.ID,
		Type:        j.Req.Type,
		Experiment:  j.Req.Experiment,
		State:       j.state,
		Error:       j.errMsg,
		CellsDone:   j.cellsDone,
		Cached:      j.cached,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
	}
	if j.state == StateDone && j.result != nil && j.result.hasArtifacts() {
		for _, a := range obs.Artifacts() {
			v.Artifacts = append(v.Artifacts, string(a))
		}
	}
	return v
}

// eventsSince returns events with Seq >= n plus a channel that closes
// when more arrive and whether the job is terminal; the progress
// streamer loops on it.
func (j *Job) eventsSince(n int) (evs []Event, more <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n < len(j.events) {
		evs = append(evs, j.events[n:]...)
	}
	return evs, j.updated, j.state.Terminal()
}

// values returns the rendered values body after its id member (see
// renderValues; nil until the job succeeds) and the job state. The
// bytes are shared read-only.
func (j *Job) values() ([]byte, JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return nil, j.state
	}
	return j.result.values, j.state
}

// artifact returns the rendered bytes of one export (nil when the job
// has none) and the job state; evicted reports that the job had
// artifacts and the artifact budget revoked them. The bytes are shared
// read-only.
func (j *Job) artifact(a obs.Artifact) (b []byte, state JobState, evicted bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return nil, j.state, false
	}
	b, evicted = j.result.artifact(a)
	return b, j.state, evicted
}

// Done exposes the terminal-state channel (closed when finished).
func (j *Job) Done() <-chan struct{} { return j.done }
