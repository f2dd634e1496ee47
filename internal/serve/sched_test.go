package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"accelflow/internal/control"
	"accelflow/internal/tune"
)

// stubReq is a valid request for stub-runner tests (never actually
// simulated — the stub runner intercepts execution).
func stubReq() JobRequest {
	return JobRequest{Type: JobExperiment, Experiment: "area", Quick: true}
}

// waitState polls until the job reaches want (fatal on timeout).
func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j.snapshot().State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s: state %s, want %s", j.ID, j.snapshot().State, want)
}

// TestSubmitValidation: admission rejects malformed requests before
// they reach the queue.
func TestSubmitValidation(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	for _, req := range []JobRequest{
		{Type: "nope"},
		{Type: JobExperiment}, // missing ID
		{Type: JobExperiment, Experiment: "no-such-figure"},      // unknown ID
		{Type: JobExperiment, Experiment: "fig11", Requests: -1}, // negative budget
		{Type: JobExperiment, Experiment: "fig11", FaultRate: 2}, // faults on experiment
		{Type: JobObserved, Experiment: "fig11"},                 // experiment on observed
		{Type: JobObserved, FaultLoss: 1.5},                      // loss out of range
		{Type: JobObserved, FaultRate: -1},                       // negative rate
		{Type: JobExperiment, Experiment: "fig11", Parallelism: -2},
		{Type: JobObserved, FaultRate: 1e8},         // too many fault windows
		{Type: JobObserved, FaultRate: math.Inf(1)}, // infinite rate
		{Type: JobObserved, FaultLoss: math.NaN()},  // NaN loss rate
		{Type: JobExperiment, Experiment: "fig11", // control on experiment
			Control: &control.Spec{Shed: &control.ShedSpec{Queue: 64}}},
		{Type: JobTune, Control: &control.Spec{Shed: &control.ShedSpec{Queue: 64}}},
		{Type: JobObserved, // bad spec caught by control.Spec.Validate
			Control: &control.Spec{Autoscale: &control.AutoscaleSpec{Target: control.TargetPE}}},
		{Type: JobObserved, // only pe and cores are autoscale targets
			Control: &control.Spec{Autoscale: &control.AutoscaleSpec{
				Target: "replicas", UpUtil: 0.8, DownUtil: 0.2}}},
		{Type: JobObserved, Requests: -1},                                     // negative budget
		{Type: JobObserved, Requests: maxRequests + 1},                        // oversized budget
		{Type: JobExperiment, Experiment: "fig11", Requests: maxRequests + 1}, // oversized budget
		{Type: JobTune, Requests: maxRequests + 1},                            // oversized budget
		{Type: JobObserved, FaultRate: 2000, FaultWindowUs: -5},               // negative window
		{Type: JobTune, SLOUs: math.NaN()},                                    // NaN tune knob
		{Type: JobTune, Patience: -1},                                         // negative patience
		{Type: JobObserved, Generations: 2},                                   // tune knob on observed
		{Type: JobObserved, // NaN threshold passes every comparison
			Control: &control.Spec{Autoscale: &control.AutoscaleSpec{Target: control.TargetPE, UpUtil: math.NaN()}}},
	} {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid request", req)
		}
	}
	// The cap is inclusive. It is an admission bound, so the boundary
	// goes through Submit, on a stub runner that simulates nothing.
	stub := newScheduler(Config{Workers: 1, QueueDepth: 4}, func(ctx context.Context, j *Job) {
		j.finish(StateDone, "")
	})
	defer stub.Close()
	for _, typ := range []string{JobExperiment, JobObserved, JobTune} {
		req := JobRequest{Type: typ, Requests: maxRequests}
		if typ == JobExperiment {
			req.Experiment = "fig11"
		}
		if _, err := stub.Submit(req); err != nil {
			t.Errorf("%s job at the request cap rejected: %v", typ, err)
		}
		req.Requests++
		if _, err := stub.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s job over the request cap: err = %v, want ErrBadRequest", typ, err)
		}
	}
}

// TestValidateNamesFields: a validation error reports the JSON names
// of the fields it is about, which is how accelsim names its flags. A
// check spanning fields names the last one it needed: the fault-window
// cap blames the rate, a bad window the window.
func TestValidateNamesFields(t *testing.T) {
	for _, tc := range []struct {
		req  JobRequest
		want string
	}{
		{JobRequest{Type: "nope"}, "type"},
		{JobRequest{Type: JobObserved, Requests: -1}, "requests"},
		{JobRequest{Type: JobObserved, Parallelism: -1}, "parallelism"},
		{JobRequest{Type: JobExperiment, Experiment: "fig99"}, "experiment"},
		{JobRequest{Type: JobTune, Experiment: "fig11"}, "experiment"},
		{JobRequest{Type: JobExperiment, Experiment: "fig11", FaultRate: 2}, "faultRate"},
		{JobRequest{Type: JobObserved, FaultRate: 1e8}, "faultRate"},
		{JobRequest{Type: JobObserved, FaultRate: 2000, FaultWindowUs: -5}, "faultWindowUs"},
		{JobRequest{Type: JobObserved, FaultLoss: math.NaN()}, "faultLoss"},
		{JobRequest{Type: JobObserved, Control: &control.Spec{Shed: &control.ShedSpec{Prob: 2}}}, "control"},
		{JobRequest{Type: JobTune, Control: &control.Spec{Shed: &control.ShedSpec{Queue: 4}}}, "control"},
		{JobRequest{Type: JobTune, Objective: "latency"}, "objective"},
		{JobRequest{Type: JobTune, Patience: -1}, "generations patience"},
		{JobRequest{Type: JobTune, LoadScale: math.NaN()}, "loadScale"},
		{JobRequest{Type: JobTune, Space: &tune.SpaceSpec{Chiplets: []int{5}}}, "space"},
		{JobRequest{Type: JobTune, Space: &tune.SpaceSpec{PEMix: map[string][]int{"TCP": {}}}}, "space"},
	} {
		err := tc.req.Validate()
		var fe interface{ Fields() []string }
		if !errors.Is(err, ErrBadRequest) || !errors.As(err, &fe) {
			t.Errorf("Validate(%+v) = %v, want a field-carrying bad request", tc.req, err)
			continue
		}
		if got := strings.Join(fe.Fields(), " "); got != tc.want {
			t.Errorf("Validate(%+v) = %v about %q, want %q", tc.req, err, got, tc.want)
		}
	}
}

// TestQueueFull: with one busy worker and a queue of QueueDepth slots,
// QueueDepth submissions queue and the next is rejected with
// ErrQueueFull; the queued jobs then dispatch in submission order once
// the worker frees up, and admission opens again.
func TestQueueFull(t *testing.T) {
	for _, depth := range []int{1, 3} {
		t.Run(fmt.Sprintf("depth %d", depth), func(t *testing.T) {
			release := make(chan struct{})
			started := make(chan string, 8)
			s := newScheduler(Config{Workers: 1, QueueDepth: depth}, func(ctx context.Context, j *Job) {
				started <- j.ID
				<-release
				j.finish(StateDone, "")
			})
			defer s.Close()

			a, err := s.Submit(stubReq())
			if err != nil {
				t.Fatal(err)
			}
			<-started // a is running, the queue is empty again
			jobs := []*Job{a}
			for i := 0; i < depth; i++ {
				j, err := s.Submit(stubReq())
				if err != nil {
					t.Fatalf("submit %d of %d into the queue: %v", i+1, depth, err)
				}
				jobs = append(jobs, j)
			}
			if _, err := s.Submit(stubReq()); !errors.Is(err, ErrQueueFull) {
				t.Fatalf("submit past a full queue: err = %v, want ErrQueueFull", err)
			}
			close(release)
			for _, j := range jobs[1:] {
				if id := <-started; id != j.ID {
					t.Fatalf("dispatched %s, want %s: queued jobs run in submission order", id, j.ID)
				}
			}
			for _, j := range jobs {
				waitState(t, j, StateDone)
			}
			// Queue drained: admission opens again.
			if _, err := s.Submit(stubReq()); err != nil {
				t.Fatalf("submit after drain of backlog: %v", err)
			}
		})
	}
}

// TestCancelQueued: a job cancelled while still queued dies
// immediately and is skipped by the worker.
func TestCancelQueued(t *testing.T) {
	release := make(chan struct{})
	ran := make(chan string, 8)
	s := newScheduler(Config{Workers: 1, QueueDepth: 2}, func(ctx context.Context, j *Job) {
		ran <- j.ID
		<-release
		j.finish(StateDone, "")
	})
	defer s.Close()

	a, _ := s.Submit(stubReq())
	<-ran
	b, _ := s.Submit(stubReq())
	b.requestCancel()
	waitState(t, b, StateCancelled) // immediate — before the worker frees up
	close(release)
	waitState(t, a, StateDone)
	select {
	case id := <-ran:
		t.Fatalf("cancelled queued job %s was executed", id)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := s.Get("job-999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("looking up an unknown job: err = %v, want ErrNotFound", err)
	}
}

// TestCancelRunning: cancelling a running job fires its context; the
// runner observes it and the job ends cancelled.
func TestCancelRunning(t *testing.T) {
	started := make(chan struct{})
	s := newScheduler(Config{Workers: 1, QueueDepth: 1}, func(ctx context.Context, j *Job) {
		close(started)
		<-ctx.Done()
		j.finish(classify(ctx, ctx.Err()), ctx.Err().Error())
	})
	defer s.Close()

	j, err := s.Submit(stubReq())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j.requestCancel()
	waitState(t, j, StateCancelled)
}

// TestPanickingJobFailsAlone: a job whose run panics ends failed with
// an error naming the panic and its ResultKey; its coalesced follower
// shares the failure, nothing is cached, and the scheduler's one
// worker goes on to run the next job and a fresh resubmission.
func TestPanickingJobFailsAlone(t *testing.T) {
	release := make(chan struct{})
	panicked := false
	var s *Scheduler
	s = newScheduler(Config{Workers: 1, QueueDepth: 4, CacheEntries: 64}, func(ctx context.Context, j *Job) {
		if j.Req.Type == JobExperiment && !panicked {
			panicked = true // only the one worker goroutine touches it
			<-release
			panic("modeling bug")
		}
		s.execute(ctx, j)
	})
	defer s.Close()

	req := stubReq()
	leader, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, leader, StateRunning)
	follower, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	next, err := s.Submit(JobRequest{Type: JobObserved, Requests: 60, Quick: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	for _, j := range []*Job{leader, follower} {
		<-j.Done()
		v := j.snapshot()
		if v.State != StateFailed || !strings.Contains(v.Error, "panic") || !strings.Contains(v.Error, req.ResultKey()) {
			t.Errorf("job %s ended %s with error %q, want failed naming the panic and %s", j.ID, v.State, v.Error, req.ResultKey())
		}
	}
	<-next.Done()
	if v := next.snapshot(); v.State != StateDone {
		t.Fatalf("the job after the panic ended %s (%q), want done", v.State, v.Error)
	}
	again, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-again.Done()
	if v := again.snapshot(); v.State != StateDone || v.Cached {
		t.Fatalf("resubmission after the panic ended %s (cached %t), want a fresh done run", v.State, v.Cached)
	}
}

// TestDrainOrdering: drain closes admission (ErrDraining), lets the
// running and the queued job finish, and only then returns.
func TestDrainOrdering(t *testing.T) {
	release := make(chan struct{})
	s := newScheduler(Config{Workers: 1, QueueDepth: 2}, func(ctx context.Context, j *Job) {
		<-release
		j.finish(StateDone, "")
	})

	a, _ := s.Submit(stubReq())
	b, _ := s.Submit(stubReq())
	s.StartDrain()
	if _, err := s.Submit(stubReq()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with jobs still admitted", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Both admitted jobs ran to completion before Drain returned.
	for _, j := range []*Job{a, b} {
		if st := j.snapshot().State; st != StateDone {
			t.Errorf("job %s: state %s after drain, want done", j.ID, st)
		}
	}
}

// TestDrainTimeoutCancels: when the drain budget expires, running jobs
// are cancelled through the root context and Drain still joins the
// workers before returning the context error.
func TestDrainTimeoutCancels(t *testing.T) {
	started := make(chan struct{})
	s := newScheduler(Config{Workers: 1, QueueDepth: 1}, func(ctx context.Context, j *Job) {
		close(started)
		<-ctx.Done() // ignores polite drain, yields only to cancellation
		j.finish(StateCancelled, ctx.Err().Error())
	})

	j, _ := s.Submit(stubReq())
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain: err = %v, want DeadlineExceeded", err)
	}
	if st := j.snapshot().State; st != StateCancelled {
		t.Fatalf("job state %s after forced drain, want cancelled", st)
	}
}

// TestJobIDsSequential: IDs are assigned in admission order and
// rejected submissions don't consume them.
func TestJobIDsSequential(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s := newScheduler(Config{Workers: 1, QueueDepth: 1}, func(ctx context.Context, j *Job) {
		started <- struct{}{}
		<-release
		j.finish(StateDone, "")
	})
	defer s.Close()
	a, _ := s.Submit(stubReq())
	<-started
	b, _ := s.Submit(stubReq())
	if _, err := s.Submit(stubReq()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected queue full, got %v", err)
	}
	close(release)
	waitState(t, b, StateDone)
	c, err := s.Submit(stubReq())
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "job-1" || b.ID != "job-2" || c.ID != "job-3" {
		t.Fatalf("IDs = %s, %s, %s; want job-1..3 (rejections must not burn IDs)", a.ID, b.ID, c.ID)
	}
}

// TestDispatchAllocFree: with 1,000 jobs queued behind a blocked
// worker, a dispatch allocates nothing: it takes the head of the one
// queue.
func TestDispatchAllocFree(t *testing.T) {
	gate, open := gated()
	const queued = 1000
	sched := newScheduler(Config{Workers: 1, QueueDepth: queued}, func(ctx context.Context, j *Job) {
		<-gate
		j.finish(StateDone, "")
	})
	defer sched.Close()
	defer open()
	blocker, err := sched.Submit(stubReq())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	for i := 0; i < queued; i++ {
		if _, err := sched.Submit(stubReq()); err != nil {
			t.Fatal(err)
		}
	}
	picked := 0
	allocs := testing.AllocsPerRun(100, func() {
		if sched.next() != nil {
			picked++
		}
	})
	if picked != 101 {
		t.Fatalf("%d of 101 picks dispatched a job, want every one", picked)
	}
	if allocs != 0 {
		t.Fatalf("a dispatch with %d jobs queued made %v allocations, want 0", queued, allocs)
	}
}
