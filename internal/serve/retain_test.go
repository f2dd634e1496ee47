package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"accelflow/internal/obs"
)

// retainedEntry is the result the retention stubs finish jobs with: a
// values body and a trace, so every per-job route has something to
// serve.
func retainedEntry() *jobResultEntry {
	return newResultEntry([]byte("\"lines\":[],\"values\":{}}\n"),
		map[obs.Artifact][]byte{obs.ArtifactTrace: []byte("{}\n")})
}

// submitDone submits req and waits for the job to finish.
func submitDone(t *testing.T, s *Scheduler, req JobRequest) *Job {
	t.Helper()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	return j
}

// gated returns a channel and the function that closes it; calling
// the function again does nothing, so a test can both open the gate
// and defer opening it.
func gated() (<-chan struct{}, func()) {
	c := make(chan struct{})
	var once sync.Once
	return c, func() { once.Do(func() { close(c) }) }
}

// retained reports how many jobs the scheduler's table holds.
func retained(s *Scheduler) int {
	s.table.mu.Lock()
	defer s.table.mu.Unlock()
	return len(s.table.jobs)
}

// status sends one request and returns its status code.
func status(t *testing.T, method, url string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestEvictedJobsAnswerGone: after retainedJobs+k finished jobs, the k
// oldest answer 410 on every per-job route and the rest answer as they
// always did; IDs never issued still answer 404, and the listing holds
// exactly the retained jobs in submission order.
func TestEvictedJobsAnswerGone(t *testing.T) {
	const k = 3
	sched, ts := testServer(t, Config{Workers: 1, QueueDepth: 1}, func(ctx context.Context, j *Job) {
		j.setResult(retainedEntry())
		j.finish(StateDone, "")
	})
	for i := 0; i < retainedJobs+k; i++ {
		submitDone(t, sched, stubReq())
	}
	routes := []struct{ method, suffix string }{
		{http.MethodGet, ""},
		{http.MethodGet, "/values"},
		{http.MethodGet, "/progress"},
		{http.MethodGet, "/artifacts/trace"},
		{http.MethodPost, "/cancel"},
	}
	check := func(id string, want int) {
		t.Helper()
		for _, r := range routes {
			w := want
			if r.method == http.MethodPost && w == http.StatusOK {
				w = http.StatusAccepted // a cancel request on a retained job
			}
			if code := status(t, r.method, ts.URL+"/v1/jobs/"+id+r.suffix); code != w {
				t.Errorf("%s %s%s: status %d, want %d", r.method, id, r.suffix, code, w)
			}
		}
	}
	for n := 1; n <= k; n++ {
		check(fmt.Sprintf("job-%d", n), http.StatusGone)
		if _, err := sched.Get(fmt.Sprintf("job-%d", n)); !errors.Is(err, ErrEvicted) {
			t.Errorf("Get(job-%d) = %v, want ErrEvicted", n, err)
		}
	}
	for _, n := range []int{k + 1, k + 2, retainedJobs + k} {
		check(fmt.Sprintf("job-%d", n), http.StatusOK)
	}
	for _, id := range []string{fmt.Sprintf("job-%d", retainedJobs+k+1), "job-0", "job-01", "job-+1", "job-", "1"} {
		check(id, http.StatusNotFound)
	}
	jobs := sched.Jobs()
	if len(jobs) != retainedJobs {
		t.Fatalf("listing holds %d jobs, want %d", len(jobs), retainedJobs)
	}
	for i, j := range jobs {
		if want := fmt.Sprintf("job-%d", k+1+i); j.ID != want {
			t.Fatalf("listing[%d] = %s, want %s", i, j.ID, want)
		}
	}
}

// TestEvictedBeforeDone checks that a job counts toward the retention
// bound before its done channel closes: once it has closed, the job
// that finished retainedJobs jobs earlier already answers ErrEvicted,
// so a client woken by "done" cannot read a job that this finish
// evicts. Each job finishes while the test holds the table's lock, so
// a done that closes before the job is counted is caught on every job,
// not only when a reader happens to win a race.
func TestEvictedBeforeDone(t *testing.T) {
	const past = 100
	var table jobTable
	jobs := make([]*Job, retainedJobs+past)
	for i := range jobs {
		jobs[i] = table.add(stubReq())
	}
	for i, j := range jobs {
		if i < retainedJobs {
			j.finish(StateDone, "")
			continue
		}
		table.mu.Lock()
		go j.finish(StateDone, "")
		select {
		case <-j.Done():
			table.mu.Unlock()
			t.Fatalf("%s reported done before it counted toward the retention bound", j.ID)
		case <-time.After(200 * time.Microsecond):
		}
		table.mu.Unlock()
		<-j.Done()
		old := jobs[i-retainedJobs]
		if _, err := table.get(old.ID); !errors.Is(err, ErrEvicted) {
			t.Fatalf("when %s reported done, %s answered %v, want ErrEvicted", j.ID, old.ID, err)
		}
		if _, err := table.get(j.ID); err != nil {
			t.Fatalf("%s: %v", j.ID, err)
		}
	}
}

// TestActiveJobsNotEvicted: a running and a queued job older than every
// retained finished job stay retained however many jobs finish after
// them, and the table never holds more than retainedJobs finished jobs
// plus the active ones.
func TestActiveJobsNotEvicted(t *testing.T) {
	const k = 5
	gate, open := gated()
	var sched *Scheduler
	sched = newScheduler(Config{Workers: 1, QueueDepth: 2, CacheEntries: 8}, func(ctx context.Context, j *Job) {
		if j.Req.Seed == 1 {
			<-gate
		}
		sched.succeed(j, retainedEntry())
	})
	defer sched.Close()
	defer open() // LIFO: unblock the worker before Close joins it
	req := func(seed int64) JobRequest { r := stubReq(); r.Seed = seed; return r }

	submitDone(t, sched, req(0)) // job-1 primes the cache
	running, err := sched.Submit(req(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, err := sched.Submit(req(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < retainedJobs+k; i++ {
		if j := submitDone(t, sched, req(0)); !j.snapshot().Cached {
			t.Fatalf("%s was not served from cache", j.ID)
		}
		if n := retained(sched); n > retainedJobs+2 {
			t.Fatalf("table holds %d jobs with 2 active, want at most %d", n, retainedJobs+2)
		}
	}
	for _, j := range []*Job{running, queued} {
		if got, err := sched.Get(j.ID); got != j || err != nil {
			t.Fatalf("active %s evicted: %v", j.ID, err)
		}
	}
	// job-1 and the k oldest cache hits (job-4 on) finished first.
	for n := 1; n <= k+3; n++ {
		if n == 2 || n == 3 {
			continue
		}
		if _, err := sched.Get(fmt.Sprintf("job-%d", n)); !errors.Is(err, ErrEvicted) {
			t.Errorf("job-%d: err %v, want ErrEvicted", n, err)
		}
	}
	if _, err := sched.Get(fmt.Sprintf("job-%d", k+4)); err != nil {
		t.Errorf("newest finished jobs evicted: %v", err)
	}
	open()
	<-queued.Done()
	if n := retained(sched); n != retainedJobs {
		t.Fatalf("table holds %d jobs with none active, want %d", n, retainedJobs)
	}
	if _, err := sched.Get(queued.ID); err != nil {
		t.Fatalf("the newest finished job was evicted: %v", err)
	}
}

// finalized reports, through the returned channel, when x is collected.
func finalized[T any](x *T) <-chan struct{} {
	c := make(chan struct{})
	runtime.SetFinalizer(x, func(*T) { close(c) })
	return c
}

// collected runs the collector until every channel closes.
func collected(t *testing.T, what string, cs ...<-chan struct{}) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, c := range cs {
		for done := false; !done; {
			runtime.GC()
			select {
			case <-c:
				done = true
			case <-time.After(10 * time.Millisecond):
				if time.Now().After(deadline) {
					t.Fatalf("%s was never collected", what)
				}
			}
		}
	}
}

// TestEvictedJobCollected: once evicted, a job whose result the cache
// does not hold is garbage, result bytes included. Nothing the
// scheduler keeps still points at it, not even the backing array of
// its queue: the job waits there behind a busy worker with
// retainedJobs+1 more behind it, and the queue still holds that array
// when the job is evicted, so only the slot a dispatch clears lets it
// go.
func TestEvictedJobCollected(t *testing.T) {
	gate, open := gated()
	var result <-chan struct{}
	sched := newScheduler(Config{Workers: 1, QueueDepth: retainedJobs + 2},
		func(ctx context.Context, j *Job) {
			if j.ID == "job-1" {
				<-gate
			}
			e := retainedEntry()
			if j.ID == "job-2" {
				result = finalized(e)
			}
			j.setResult(e)
			j.finish(StateDone, "")
		})
	defer sched.Close()
	defer open()
	blocker, err := sched.Submit(stubReq())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	// job-2's pointer stays inside this closure, so nothing on the
	// test's stack keeps it alive.
	job := func() <-chan struct{} {
		j, err := sched.Submit(stubReq())
		if err != nil {
			t.Fatal(err)
		}
		return finalized(j)
	}()
	var last *Job
	for i := 0; i <= retainedJobs; i++ {
		if last, err = sched.Submit(stubReq()); err != nil {
			t.Fatal(err)
		}
	}
	open()
	// One worker takes the queue in order. A job counts toward the
	// retention bound just after its done channel closes, so when the
	// last job is done, the retainedJobs+2 before it have counted.
	<-last.Done()
	if _, err := sched.Get("job-2"); !errors.Is(err, ErrEvicted) {
		t.Fatalf("job-2: err %v, want ErrEvicted", err)
	}
	collected(t, "the evicted job and its result", job, result)
}

// TestResubmitEvictedHits: an evicted job's result stays in the result
// cache, so resubmitting its body hits the cache and serves the bytes
// the evicted job served, while the job itself is collected.
func TestResubmitEvictedHits(t *testing.T) {
	sched, ts := testServer(t, Config{Workers: 1, QueueDepth: 1, CacheEntries: 8}, nil)
	const body = `{"type":"observed","requests":20,"quick":true,"seed":3}`
	first := submitAndWait(t, ts.URL, body)
	trace := fetchBytes(t, ts.URL+"/v1/jobs/"+first+"/artifacts/trace")
	values := fetchBytes(t, ts.URL+"/v1/jobs/"+first+"/values")
	job := func() <-chan struct{} {
		j, err := sched.Get(first)
		if err != nil {
			t.Fatal(err)
		}
		return finalized(j)
	}()
	for i := 0; i < retainedJobs; i++ {
		submitAndWait(t, ts.URL, body)
	}
	if code := status(t, http.MethodGet, ts.URL+"/v1/jobs/"+first); code != http.StatusGone {
		t.Fatalf("%s: status %d, want 410", first, code)
	}
	collected(t, "the evicted job", job)
	last := submitAndWait(t, ts.URL, body)
	if v := jobView(t, ts.URL, last); !v.Cached {
		t.Fatalf("resubmission of an evicted job's body was not a cache hit: %+v", v)
	}
	if b := fetchBytes(t, ts.URL+"/v1/jobs/"+last+"/artifacts/trace"); !bytes.Equal(b, trace) {
		t.Error("trace of the cache hit differs from the evicted job's")
	}
	want := bytes.Replace(values, []byte(first), []byte(last), 1)
	if b := fetchBytes(t, ts.URL+"/v1/jobs/"+last+"/values"); !bytes.Equal(b, want) {
		t.Error("values of the cache hit differ from the evicted job's")
	}
}
