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
		if err := sched.Cancel(fmt.Sprintf("job-%d", n)); !errors.Is(err, ErrEvicted) {
			t.Errorf("Cancel(job-%d) = %v, want ErrEvicted", n, err)
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
// its tenant's queue: the tenant outlives the job here, because a
// bucket that never refills keeps its state.
func TestEvictedJobCollected(t *testing.T) {
	sched := newScheduler(Config{Workers: 1, QueueDepth: 1, TenantRate: 1e-9, TenantBurst: 2},
		func(ctx context.Context, j *Job) {
			j.setResult(retainedEntry())
			j.finish(StateDone, "")
		})
	defer sched.Close()
	// The first job's pointers stay inside this closure, so nothing on
	// the test's stack keeps it alive.
	job, result := func() (<-chan struct{}, <-chan struct{}) {
		j := submitDone(t, sched, stubReq())
		return finalized(j), finalized(j.cacheEntry())
	}()
	for i := 0; i < retainedJobs; i++ {
		r := stubReq()
		r.Tenant = fmt.Sprintf("t%d", i)
		submitDone(t, sched, r)
	}
	if _, err := sched.Get("job-1"); !errors.Is(err, ErrEvicted) {
		t.Fatalf("job-1: err %v, want ErrEvicted", err)
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

// TestIdleTenantsDropped: 10,000 tenants that submit one job each leave
// only the tenants with queued work in the tenants map, and none once
// that work has run: a cache hit drops its tenant at once, a dispatch
// drops the tenant it empties.
func TestIdleTenantsDropped(t *testing.T) {
	gate, open := gated()
	var sched *Scheduler
	sched = newScheduler(Config{Workers: 1, QueueDepth: 1, CacheEntries: 8}, func(ctx context.Context, j *Job) {
		if j.Req.Seed == 1 {
			<-gate
		}
		sched.succeed(j, retainedEntry())
	})
	defer sched.Close()
	defer open()
	req := func(tenant string, seed int64) JobRequest {
		r := stubReq()
		r.Tenant, r.Seed = tenant, seed
		return r
	}
	tenants := func() (n, idle int) {
		sched.mu.Lock()
		defer sched.mu.Unlock()
		// order-insensitive: counts only.
		for _, t := range sched.tenants {
			if len(t.fifo) == 0 {
				idle++
			}
		}
		return len(sched.tenants), idle
	}

	submitDone(t, sched, req("prime", 0))
	blocker, err := sched.Submit(req("blocker", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	var queued []*Job
	for i := 0; i < 10_000; i++ {
		seed := int64(0) // a cache hit
		if i%100 == 99 {
			seed = int64(100 + i) // queued behind the blocker
		}
		j, err := sched.Submit(req(fmt.Sprintf("t%d", i), seed))
		if err != nil {
			t.Fatal(err)
		}
		if seed != 0 {
			queued = append(queued, j)
		}
	}
	if n, idle := tenants(); n != len(queued) || idle != 0 {
		t.Fatalf("tenants map holds %d tenants, %d of them idle; want the %d with queued work", n, idle, len(queued))
	}
	open()
	for _, j := range queued {
		<-j.Done()
	}
	if n, _ := tenants(); n != 0 {
		t.Fatalf("tenants map holds %d tenants after every job ran, want 0", n)
	}
}

// TestDroppedTenantKeepsNoTokens: a rate-limited tenant that drained its
// bucket is kept until the bucket refills, through the scans other
// tenants' dispatches make, so its next submission is still refused;
// dropped once the bucket is full, it starts again with a full one.
func TestDroppedTenantKeepsNoTokens(t *testing.T) {
	sched := newScheduler(Config{Workers: 1, QueueDepth: 4, TenantRate: 1, TenantBurst: 2},
		func(ctx context.Context, j *Job) { j.finish(StateDone, "") })
	defer sched.Close()
	now := time.Unix(1_000_000, 0)
	sched.mu.Lock()
	sched.now = func() time.Time { return now }
	sched.mu.Unlock()
	req := func(tenant string) JobRequest { r := stubReq(); r.Tenant = tenant; return r }
	advance := func(d time.Duration) {
		sched.mu.Lock()
		defer sched.mu.Unlock()
		now = now.Add(d)
	}
	has := func(tenant string) bool {
		sched.mu.Lock()
		defer sched.mu.Unlock()
		return sched.tenants[tenant] != nil
	}

	submitDone(t, sched, req("alpha"))
	submitDone(t, sched, req("alpha"))
	// Another tenant's dispatches scan alpha, idle with an empty bucket.
	submitDone(t, sched, req("beta"))
	if !has("alpha") {
		t.Fatal("alpha dropped with an empty bucket")
	}
	var rle *RateLimitError
	if _, err := sched.Submit(req("alpha")); !errors.As(err, &rle) {
		t.Fatalf("alpha's submission with an empty bucket: err %v, want *RateLimitError", err)
	}
	advance(1500 * time.Millisecond) // 1.5 of 2 tokens back
	submitDone(t, sched, req("beta"))
	if !has("alpha") {
		t.Fatal("alpha dropped with a bucket still refilling")
	}
	advance(time.Second) // full again
	submitDone(t, sched, req("gamma"))
	if has("alpha") || has("beta") {
		t.Fatal("tenants with full buckets and no queued work kept")
	}
	for i := 0; i < 2; i++ {
		if _, err := sched.Submit(req("alpha")); err != nil {
			t.Fatalf("alpha's submission %d with a full bucket: %v", i, err)
		}
	}
	if _, err := sched.Submit(req("alpha")); !errors.As(err, &rle) {
		t.Fatalf("alpha's third submission: err %v, want *RateLimitError", err)
	}
}
