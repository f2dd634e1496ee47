package serve

import (
	"bytes"
	"context"
	"testing"
)

// cancelledJobs is how many cancelled fig14 jobs the test runs. Whether
// a cancellation lands inside a throughput search depends on timing, so
// one job proves little.
const cancelledJobs = 8

// TestAbortedThroughputJobNotCached: a quick fig14 job cancelled when
// its first cell finishes ends cancelled, or, when every cell had
// finished first, done with exactly an uncancelled run's values. Its
// resubmission is a cache hit only in the second case, so a cancelled
// search never poisons the result cache. Parallelism 64 starts every
// cell at once, so the cancellation reaches searches mid-probe.
func TestAbortedThroughputJobNotCached(t *testing.T) {
	sched := NewScheduler(Config{Workers: 1, QueueDepth: 4, CacheEntries: 64})
	t.Cleanup(sched.Close)
	for i := 0; i < cancelledJobs; i++ {
		// A distinct seed per job: a job that legitimately ends done is
		// cached, and the next job must not hit it.
		req := JobRequest{Type: JobExperiment, Experiment: "fig14", Requests: 120, Quick: true,
			Parallelism: 64, Seed: int64(i + 1)}
		j, err := sched.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		awaitFirstCell(j)
		j.requestCancel()
		<-j.Done()
		state := j.snapshot().State
		switch state {
		case StateCancelled:
		case StateDone:
			got, _ := j.values()
			res, err := Run(context.Background(), req, Env{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := renderValues(res.Values, res.Lines)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("job %d: cancelled job ended done with values that differ from an uncancelled run's:\n got %s\nwant %s", i, got, want)
			}
		default:
			t.Fatalf("job %d: cancelled job ended %s (%s), want cancelled or done", i, state, j.snapshot().Error)
		}

		again, err := sched.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if cached := again.snapshot().Cached; cached != (state == StateDone) {
			t.Fatalf("job %d ended %s, and its resubmission has cached=%t", i, state, cached)
		}
		again.requestCancel()
		<-again.Done()
	}
}

// awaitFirstCell blocks until the job reports a finished cell or ends.
func awaitFirstCell(j *Job) {
	for n := 0; ; {
		evs, more, terminal := j.eventsSince(n)
		for _, ev := range evs {
			if ev.Event == "cell" {
				return
			}
		}
		if terminal {
			return
		}
		n += len(evs)
		<-more
	}
}
