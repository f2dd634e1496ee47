package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestSubmitDrainRace hammers admission while the scheduler drains:
// 100 goroutines submit concurrently, and midway through a drain
// begins. Run under -race, this is the regression net for the
// Submit/StartDrain serialization (the select-send and the channel
// close both happen under the scheduler mutex — a send outside it
// could panic on the closed queue). Every submit must either return a
// job or fail with ErrDraining/ErrQueueFull, accepted jobs must get
// unique sequential IDs, and the registry must hold exactly the
// accepted set.
func TestSubmitDrainRace(t *testing.T) {
	const submitters = 100
	release := make(chan struct{})
	s := newScheduler(Config{Workers: 4, QueueDepth: submitters}, func(ctx context.Context, j *Job) {
		<-release
		j.finish(StateDone, "")
	})
	defer s.Close()

	var (
		start    = make(chan struct{})
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted []*Job
		rejected int
	)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			j, err := s.Submit(stubReq())
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				accepted = append(accepted, j)
			case errors.Is(err, ErrDraining) || errors.Is(err, ErrQueueFull):
				rejected++
			default:
				t.Errorf("submit: unexpected error %v", err)
			}
		}()
	}
	close(start)
	// Race the drain against the submit storm, then let workers finish.
	s.StartDrain()
	wg.Wait()
	close(release)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if len(accepted)+rejected != submitters {
		t.Fatalf("accounting leak: %d accepted + %d rejected != %d submits",
			len(accepted), rejected, submitters)
	}
	seen := map[string]bool{}
	for _, j := range accepted {
		if seen[j.ID] {
			t.Errorf("duplicate job ID %s", j.ID)
		}
		seen[j.ID] = true
		n, err := strconv.Atoi(strings.TrimPrefix(j.ID, "job-"))
		if err != nil || n < 1 || n > len(accepted) {
			t.Errorf("job ID %s outside the dense sequence 1..%d", j.ID, len(accepted))
		}
	}
	if got := len(s.Jobs()); got != len(accepted) {
		t.Errorf("registry holds %d jobs, accepted %d", got, len(accepted))
	}
	for _, j := range accepted {
		if st := j.snapshot().State; st != StateDone {
			t.Errorf("accepted job %s ended in state %s after drain", j.ID, st)
		}
	}
}

// TestSubmitCancelRace overlaps submissions with cancellations of
// every job seen so far: Cancel must be safe against jobs in any
// state, concurrent with the workers flipping them to running.
func TestSubmitCancelRace(t *testing.T) {
	release := make(chan struct{})
	s := newScheduler(Config{Workers: 2, QueueDepth: 64}, func(ctx context.Context, j *Job) {
		select {
		case <-ctx.Done():
			j.finish(StateCancelled, "cancelled")
		case <-release:
			j.finish(StateDone, "")
		}
	})
	defer s.Close()

	const jobs = 40
	ids := make(chan string, jobs)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(ids)
		for i := 0; i < jobs; i++ {
			j, err := s.Submit(stubReq())
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids <- j.ID
		}
	}()
	go func() {
		defer wg.Done()
		for id := range ids {
			// Cancel races the worker picking the job up; both outcomes
			// (canceled or already terminal) are legal, crashes are not.
			if j, err := s.Get(id); err == nil {
				j.requestCancel()
			}
		}
	}()
	wg.Wait()
	close(release)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range s.Jobs() {
		if st := j.snapshot().State; st != StateDone && st != StateCancelled {
			t.Errorf("job %s ended in non-terminal state %s", j.ID, st)
		}
	}
}

// TestConcurrentSnapshotProgress reads job snapshots and progress
// streams while workers mutate the same jobs — the mu-guarded state
// must never tear (verified by -race).
func TestConcurrentSnapshotProgress(t *testing.T) {
	s := newScheduler(Config{Workers: 2, QueueDepth: 16}, func(ctx context.Context, j *Job) {
		for i := 0; i < 50; i++ {
			j.appendEvent(Event{Event: "cell", Key: fmt.Sprintf("step %d", i), Done: i + 1, Total: 50})
		}
		j.finish(StateDone, "")
	})
	defer s.Close()

	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(stubReq())
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j *Job) {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				_ = j.snapshot()
			}
		}(j)
	}
	wg.Wait()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestEvictionRace runs the scheduler well past the retention bound
// with every way a job can finish happening at once: cache hits
// completed under the scheduler lock, runs finished by workers, failed
// leaders retiring their flights under their own locks, followers
// finished by their leaders, and cancellations, while readers look
// jobs up and list them. Eviction must neither deadlock (the test would
// hang) nor race, and afterwards the table holds exactly the newest
// retainedJobs finished jobs while every older ID answers ErrEvicted.
func TestEvictionRace(t *testing.T) {
	var s *Scheduler
	s = newScheduler(Config{Workers: 2, QueueDepth: 64, CacheEntries: 16}, func(ctx context.Context, j *Job) {
		if j.Req.Seed%3 == 0 {
			j.finish(StateFailed, "stub failure") // never cached, so always rerun
			return
		}
		s.succeed(j, retainedEntry())
	})
	defer s.Close()

	const submitters, each = 4, 400
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r := stubReq()
				r.Seed = int64(i % 24) // repeats: hits, followers and reruns
				j, err := s.Submit(r)
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i%5 == 0 {
					j.requestCancel()
				}
				_, _ = s.Get(fmt.Sprintf("job-%d", i+1))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for _, j := range s.Jobs() {
				_ = j.snapshot()
			}
		}
	}()
	wg.Wait()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	s.table.mu.Lock()
	last := s.table.last
	s.table.mu.Unlock()
	if last <= retainedJobs {
		t.Fatalf("only %d jobs admitted; the test needs more than %d", last, retainedJobs)
	}
	if n := retained(s); n != retainedJobs {
		t.Fatalf("table holds %d jobs with none active, want %d", n, retainedJobs)
	}
	for _, j := range s.Jobs() {
		if st := j.snapshot().State; !st.Terminal() {
			t.Errorf("job %s ended in non-terminal state %s", j.ID, st)
		}
	}
	evicted := 0
	for n := int64(1); n <= last; n++ {
		switch _, err := s.Get(jobID(n)); {
		case errors.Is(err, ErrEvicted):
			evicted++
		case err != nil:
			t.Fatalf("job-%d: %v", n, err)
		}
	}
	if want := int(last) - retainedJobs; evicted != want {
		t.Errorf("%d IDs answer ErrEvicted, want %d", evicted, want)
	}
}
