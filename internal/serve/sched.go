// The in-process job scheduler: one bounded FIFO queue feeding a fixed
// worker pool, with per-job cancellation, graceful drain, and a
// content-addressed result cache with singleflight coalescing
// (cache.go).
//
// Admission control is strict — a full queue rejects immediately with
// ErrQueueFull (the HTTP layer maps it to 429 + Retry-After) instead of
// queueing unboundedly, which is what keeps a daemon under heavy
// traffic from accumulating hours of simulation backlog. Workers take
// queued jobs in submission order. CacheEntries <= 0 disables caching
// and coalescing.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"accelflow/internal/obs"
	"accelflow/internal/tune"
)

// Admission errors; the HTTP layer maps them to status codes.
var (
	// ErrQueueFull means the bounded queue is at capacity (HTTP 429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining means the scheduler is shutting down (HTTP 503).
	ErrDraining = errors.New("serve: scheduler draining, not accepting jobs")
	// ErrNotFound means no job was ever issued the requested ID (HTTP
	// 404).
	ErrNotFound = errors.New("serve: no such job")
	// ErrEvicted means the job with the requested ID finished and was
	// evicted to keep the newest retainedJobs finished jobs (HTTP 410).
	ErrEvicted = fmt.Errorf("serve: job evicted; the scheduler keeps only its %d newest finished jobs", retainedJobs)
	// ErrArtifactsEvicted means a retained job's artifacts were revoked
	// to keep rendered artifacts within artifactBudget (HTTP 410); its
	// values remain.
	ErrArtifactsEvicted = fmt.Errorf("serve: artifacts evicted; the daemon holds at most %d MiB of rendered artifacts, resubmit the job to render them again", artifactBudget>>20)
	// ErrBadRequest is the sentinel all request-validation errors match
	// via errors.Is (HTTP 400). Errors that do NOT match it — and are
	// not one of the sentinels above — are internal failures and map to
	// 500, never 400.
	ErrBadRequest = errors.New("serve: invalid job request")
)

// requestError is a validation failure: errors.Is(err, ErrBadRequest)
// holds for every one. fields holds the JSON names of the offending
// request fields, empty when the error is about no field in particular.
type requestError struct {
	fields []string
	msg    string
}

func (e *requestError) Error() string        { return e.msg }
func (e *requestError) Is(target error) bool { return target == ErrBadRequest }

// Fields returns the JSON names of the request fields the error is
// about; accelsim maps them onto the flags that set them.
func (e *requestError) Fields() []string { return e.fields }

// badRequestf builds a client-error (HTTP 400) validation failure.
func badRequestf(format string, args ...any) error {
	return &requestError{msg: fmt.Sprintf(format, args...)}
}

// fieldErrorf is badRequestf about one request field.
func fieldErrorf(field, format string, args ...any) error {
	return &requestError{fields: []string{field}, msg: fmt.Sprintf(format, args...)}
}

// Config sizes the scheduler.
type Config struct {
	// Workers bounds concurrently running jobs; <= 0 means 2.
	Workers int
	// QueueDepth bounds jobs admitted but not yet picked up by a
	// worker; <= 0 means 8. Submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// RetryAfter is the backoff hint returned with queue-full/draining
	// responses; <= 0 means 1s.
	RetryAfter time.Duration
	// Check attaches the runtime invariant checker to every job the
	// daemon runs (the -check flag). Checking never changes job values
	// or artifact bytes; a violated invariant fails the job with a
	// structured error instead.
	Check bool
	// CacheEntries bounds the content-addressed result cache, counted in
	// finished jobs (see cache.go). <= 0 disables caching AND
	// singleflight coalescing: every submission runs, exactly the
	// pre-cache behavior. Artifact bytes are bounded by artifactBudget
	// either way, not by this count.
	CacheEntries int
	// Deprecated: TenantBurst is ignored. It is kept only so that
	// bench/daemon.go, which sets it, still compiles.
	TenantBurst int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// flight is one in-flight cacheable run: the leader executes, the
// followers coalesced onto it and complete from its outcome without
// ever occupying a queue slot or a worker. The scheduler's flights
// table holds it from the leader's admission until it retires, and
// followers join only while it is there.
type flight struct {
	sched     *Scheduler
	key       string
	followers []*Job // guarded by sched.mu
}

// retire takes the flight out of the scheduler's table, if it is still
// there, so no later submission joins it, and hands back the followers
// that did. It takes the scheduler lock; a leader that fails or is
// cancelled calls it under its own lock, so the lock order is job, then
// scheduler, and the scheduler locks no job another goroutine can reach.
func (f *flight) retire() []*Job {
	f.sched.mu.Lock()
	defer f.sched.mu.Unlock()
	if f.sched.flights[f.key] == f {
		delete(f.sched.flights, f.key)
	}
	fo := f.followers
	f.followers = nil
	return fo
}

// Scheduler admits, runs, cancels, and drains jobs.
type Scheduler struct {
	cfg        Config
	root       context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup
	// cache keys results only when CacheEntries > 0, and owns the
	// artifact budget always.
	cache *resultCache

	table    jobTable // the retained jobs; locked on its own (retain.go)
	mu       sync.Mutex
	cond     *sync.Cond // signals workers when work or drain arrives
	draining bool
	queue    []*Job // admitted jobs no worker has taken yet, oldest first
	flights  map[string]*flight

	// runJob executes one started job; tests swap it for a stub to
	// exercise admission/cancel/drain without real simulations.
	runJob func(ctx context.Context, j *Job)
}

// NewScheduler starts cfg.Workers workers and returns the scheduler.
func NewScheduler(cfg Config) *Scheduler {
	return newScheduler(cfg, nil)
}

// newScheduler optionally injects a job runner (tests stub it to
// exercise admission, cancellation, and drain without simulating); it
// must be wired before the workers start to stay race-free.
func newScheduler(cfg Config, runFn func(ctx context.Context, j *Job)) *Scheduler {
	cfg = cfg.withDefaults()
	root, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:        cfg,
		root:       root,
		rootCancel: cancel,
		flights:    map[string]*flight{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.cache = newResultCache(max(cfg.CacheEntries, 0))
	s.runJob = s.execute
	if runFn != nil {
		s.runJob = runFn
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Config returns the effective (defaulted) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// CacheStats snapshots the result cache ("ok" false when caching is
// disabled, when only the artifact counters move).
func (s *Scheduler) CacheStats() (CacheStats, bool) {
	return s.cache.Stats(), s.cfg.CacheEntries > 0
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		ctx, cancel := context.WithCancel(s.root)
		if j.start(cancel) {
			s.run(ctx, j)
		}
		cancel()
		s.settle(j)
	}
}

// run calls runJob on the worker's goroutine. A panic ends the job
// failed, with the job's ResultKey as the key that reproduces it: the
// job is not cached, its coalesced followers share the failure
// (finishLocked), and the worker goes on to the next job instead of
// taking the daemon down.
func (s *Scheduler) run(ctx context.Context, j *Job) {
	defer func() {
		if r := recover(); r != nil {
			j.finish(StateFailed, fmt.Sprintf("serve: job panicked: %v (result key %s)", r, j.Req.ResultKey()))
		}
	}()
	s.runJob(ctx, j)
}

// next blocks until a job is queued and takes the oldest (returning
// it), or until the scheduler is draining with nothing queued
// (returning nil, which exits the worker).
func (s *Scheduler) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 {
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
	j := s.queue[0]
	// Clear the slot so the backing array does not keep the job alive
	// after it is evicted.
	s.queue[0] = nil
	s.queue = s.queue[1:]
	return j
}

// maxRequests caps a job's request budget at admission. An observed
// run's sink keeps about 2.8 KiB per request live until its artifacts
// are rendered, and the trace and report a finished job then keeps
// take about 15.5 KiB per request (both measured at 2,000 and 8,000
// full-fidelity requests). The artifact budget keeps the newest entry
// whatever its size, so without a cap one job could exhaust the
// daemon's memory; at the cap its artifacts alone hold about 1.5 GiB.
// It bounds the daemon only: accelsim runs whatever budget its user
// asks for.
const maxRequests = 100_000

// Submit validates and admits one job. It never blocks, and it computes
// the job's result key before it takes the scheduler lock. Outcomes, in
// evaluation order:
//
//   - a malformed request, or one over the maxRequests budget, returns
//     its validation error (matches ErrBadRequest);
//   - a draining scheduler returns ErrDraining;
//   - with caching on, a completed identical result completes the job
//     synchronously from cache ("cached": true, no queue slot), and an
//     in-flight identical run coalesces the job onto it as a follower
//     (also no queue slot);
//   - a full queue returns ErrQueueFull;
//   - otherwise the job joins the tail of the queue.
//
// Only accepted submissions are issued an ID, so rejections never burn
// one.
func (s *Scheduler) Submit(req JobRequest) (*Job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if req.Requests > maxRequests {
		return nil, fieldErrorf("requests", "serve: requests must be at most %d, got %d", maxRequests, req.Requests)
	}
	var key string
	if s.cfg.CacheEntries > 0 {
		key = req.ResultKey()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if key != "" {
		if e, ok := s.cache.getJob(key); ok {
			j := s.table.add(req)
			j.completeCached(e)
			return j, nil
		}
		if f := s.flights[key]; f != nil {
			s.cache.coalesced()
			j := s.table.add(req)
			f.followers = append(f.followers, j)
			return j, nil
		}
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		return nil, ErrQueueFull
	}
	j := s.table.add(req)
	if key != "" {
		j.flight = &flight{sched: s, key: key}
		s.flights[key] = j.flight
	}
	s.queue = append(s.queue, j)
	s.cond.Signal()
	return j, nil
}

// succeed completes a job whose run succeeded. Every job publishes its
// entry to the cache before the "done" event, which puts its artifacts
// under the budget; a cacheable leader's entry is also keyed, so a
// client that waits for done and resubmits hits the entry instead of
// coalescing onto the flight, which settle retires only after the
// worker returns.
func (s *Scheduler) succeed(j *Job, e *jobResultEntry) {
	j.setResult(e)
	var key string
	if j.flight != nil {
		key = j.flight.key
	}
	s.cache.publish(key, e)
	j.finish(StateDone, "")
}

// settle closes out a dispatched cacheable leader that succeeded, after
// its worker is done with it: the flight retires and every coalesced
// follower completes from the leader's entry. succeed published the
// entry before the flight retires, so a concurrent Submit either sees
// the entry (and hits) or the flight (and coalesces) — never neither. A
// leader that failed or was cancelled retired its flight and mirrored
// its outcome onto its followers as it finished (Job.finishLocked), so
// settle has nothing left to do for it.
func (s *Scheduler) settle(j *Job) {
	if j.flight == nil {
		return
	}
	entry := j.cacheEntry()
	if entry == nil {
		return
	}
	for _, fo := range j.flight.retire() {
		fo.completeCached(entry)
	}
}

// Get returns a retained job by ID. An evicted job's ID returns
// ErrEvicted, and an ID never issued ErrNotFound.
func (s *Scheduler) Get(id string) (*Job, error) { return s.table.get(id) }

// Jobs returns the retained jobs in submission order.
func (s *Scheduler) Jobs() []*Job { return s.table.list() }

// Draining reports whether admission is closed.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// StartDrain closes admission: later Submits fail with ErrDraining
// while already-admitted jobs (queued and running) continue to
// completion. Idempotent.
func (s *Scheduler) StartDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	// Wake every idle worker so it can observe the drain and exit once
	// the queue is empty.
	s.cond.Broadcast()
}

// Drain closes admission and waits until every admitted job has
// reached a terminal state. If ctx expires first, running jobs are
// cancelled via the scheduler root context and Drain still waits for
// the (now fast, cooperative) worker exit before returning ctx's
// error.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.rootCancel()
		<-done
		return ctx.Err()
	}
}

// Close force-stops the scheduler: admission closes, running jobs are
// cancelled, and workers are joined. Tests use it; the daemon prefers
// Drain.
func (s *Scheduler) Close() {
	s.StartDrain()
	s.rootCancel()
	s.wg.Wait()
}

// execute runs one started job to a terminal state.
func (s *Scheduler) execute(ctx context.Context, j *Job) {
	env := Env{
		Check:        s.cfg.Check,
		OnCell:       j.cellDone,
		OnGeneration: func(pr tune.Progress, _ []byte) { j.generationDone(pr) },
	}
	res, err := Run(ctx, j.Req, env)
	if err != nil {
		j.finish(classify(ctx, err), err.Error())
		return
	}
	// Render once, for every fetch to come, and drop the sink: the job
	// keeps only the bytes.
	var arts map[obs.Artifact][]byte
	values, err := renderValues(res.Values, res.Lines)
	if err == nil && res.Sink != nil {
		arts, err = renderArtifacts(res.Sink)
	}
	if err != nil {
		j.finish(StateFailed, err.Error())
		return
	}
	s.succeed(j, newResultEntry(values, arts))
}

// classify distinguishes a cancelled run from a genuine failure.
func classify(ctx context.Context, err error) JobState {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
		return StateCancelled
	}
	return StateFailed
}
