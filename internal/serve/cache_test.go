// Tests for the content-addressed result cache and singleflight
// coalescing. Byte-equality tests go through the HTTP surface so they
// pin what clients actually receive.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelflow/internal/obs"
)

// cachedServer boots a cache-enabled scheduler behind HTTP.
func cachedServer(t *testing.T) (*Scheduler, string) {
	t.Helper()
	sched, ts := testServer(t, Config{Workers: 2, QueueDepth: 8, CacheEntries: 256}, nil)
	return sched, ts.URL
}

// jobValues fetches and decodes a finished job's values payload.
func jobValues(t *testing.T, base, id string) (map[string]float64, []string) {
	t.Helper()
	var out struct {
		Values map[string]float64 `json:"values"`
		Lines  []string           `json:"lines"`
	}
	if err := json.Unmarshal(fetchBytes(t, base+"/v1/jobs/"+id+"/values"), &out); err != nil {
		t.Fatal(err)
	}
	return out.Values, out.Lines
}

func jobView(t *testing.T, base, id string) JobView {
	t.Helper()
	var v JobView
	if err := json.Unmarshal(fetchBytes(t, base+"/v1/jobs/"+id), &v); err != nil {
		t.Fatal(err)
	}
	return v
}

func cacheStatsHTTP(t *testing.T, base string) (bool, CacheStats) {
	t.Helper()
	var out struct {
		Enabled bool       `json:"enabled"`
		Stats   CacheStats `json:"stats"`
	}
	if err := json.Unmarshal(fetchBytes(t, base+"/v1/cache"), &out); err != nil {
		t.Fatal(err)
	}
	return out.Enabled, out.Stats
}

// TestCacheHitExperiment: a repeated identical experiment submission
// is served from cache with identical values and lines, flagged
// "cached": true, and visible in /v1/cache stats.
func TestCacheHitExperiment(t *testing.T) {
	_, base := cachedServer(t)
	body := `{"type":"experiment","experiment":"fig19","quick":true,"requests":40,"seed":3}`

	cold := submitAndWait(t, base, body)
	warm := submitAndWait(t, base, body)

	coldVals, coldLines := jobValues(t, base, cold)
	warmVals, warmLines := jobValues(t, base, warm)
	if !reflect.DeepEqual(coldVals, warmVals) || !reflect.DeepEqual(coldLines, warmLines) {
		t.Fatal("cached experiment results differ from the cold run")
	}
	if jobView(t, base, cold).Cached {
		t.Error("cold run reported cached")
	}
	if !jobView(t, base, warm).Cached {
		t.Error("repeat submission not reported cached")
	}
	enabled, stats := cacheStatsHTTP(t, base)
	if !enabled {
		t.Fatal("/v1/cache reports caching disabled")
	}
	if stats.Hits < 1 || stats.Entries == 0 {
		t.Errorf("cache stats after hit: %+v", stats)
	}
}

// TestResubmitAfterDoneHits: a client that waits for a job's "done"
// event and resubmits is always served from the cache. The leader
// publishes its entry before it emits "done"; published after, the
// resubmission could still find the leader's flight open and coalesce
// onto a run that had already finished.
func TestResubmitAfterDoneHits(t *testing.T) {
	sched := NewScheduler(Config{Workers: 2, QueueDepth: 4, CacheEntries: 1024})
	defer sched.Close()
	const rounds = 200
	for i := 0; i < rounds; i++ {
		// A distinct seed per round keeps every first submission cold.
		req := JobRequest{Type: JobExperiment, Experiment: "area", Quick: true, Seed: int64(i + 1)}
		cold, err := sched.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		<-cold.Done()
		if st := cold.snapshot().State; st != StateDone {
			t.Fatalf("round %d: cold job ended %s", i, st)
		}
		again, err := sched.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if v := again.snapshot(); !v.Cached || v.State != StateDone {
			st, _ := sched.CacheStats()
			t.Fatalf("round %d: resubmission after done was not a completed cache hit (state %s, cached %t, stats %+v)",
				i, v.State, v.Cached, st)
		}
	}
	st, _ := sched.CacheStats()
	if st.Hits != rounds || st.Coalesced != 0 {
		t.Fatalf("cache stats %+v, want %d hits and nothing coalesced", st, rounds)
	}
}

// TestCacheHitObservedArtifacts: observed jobs cache their rendered
// artifact bytes; a hit serves the exact bytes the cold run served.
func TestCacheHitObservedArtifacts(t *testing.T) {
	_, base := cachedServer(t)

	cold := submitAndWait(t, base, `{"type":"observed","requests":120,"quick":true,"seed":4}`)
	warm := submitAndWait(t, base, `{"type":"observed","requests":120,"quick":true,"seed":4}`)

	for _, kind := range []string{"trace", "report"} {
		want := fetchBytes(t, base+"/v1/jobs/"+cold+"/artifacts/"+kind)
		if got := fetchBytes(t, base+"/v1/jobs/"+warm+"/artifacts/"+kind); !bytes.Equal(got, want) {
			t.Errorf("%s artifact of the cached job differs from cold run (%d vs %d bytes)", kind, len(got), len(want))
		}
	}
	coldVals, _ := jobValues(t, base, cold)
	warmVals, _ := jobValues(t, base, warm)
	if !reflect.DeepEqual(coldVals, warmVals) {
		t.Fatal("cached observed values differ from the cold run")
	}
	if !jobView(t, base, warm).Cached {
		t.Error("repeat observed submission not reported cached")
	}
	if arts := jobView(t, base, warm).Artifacts; len(arts) != 2 {
		t.Errorf("cached job lists artifacts %v, want trace+report", arts)
	}
}

// TestCoalesceConcurrentSubmissions: N identical in-flight submissions
// run the simulation exactly once; every follower completes with the
// leader's bytes.
func TestCoalesceConcurrentSubmissions(t *testing.T) {
	var runs int32
	var sched *Scheduler
	sched = newScheduler(Config{Workers: 2, QueueDepth: 4, CacheEntries: 64},
		func(ctx context.Context, j *Job) {
			atomic.AddInt32(&runs, 1)
			sched.execute(ctx, j)
		})
	defer sched.Close()

	const n = 20
	req := JobRequest{Type: JobObserved, Requests: 120, Quick: true, Seed: 4}
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := sched.Submit(req)
			if err != nil {
				errc <- fmt.Errorf("submit %d: %w", i, err)
				return
			}
			jobs[i] = j
			<-j.Done()
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		// Coalesced followers never occupy queue slots, so none of the
		// 20 submissions should have been rejected.
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&runs); got != 1 {
		t.Fatalf("%d executions for %d identical submissions, want 1", got, n)
	}
	var want []byte
	for i, j := range jobs {
		vals, state := j.values()
		if state != StateDone {
			t.Fatalf("job %d ended %s", i, state)
		}
		if want == nil {
			want = vals
		} else if !bytes.Equal(vals, want) {
			t.Fatalf("job %d values diverged", i)
		}
	}
	// Every job serves the one trace rendering the leader made when
	// its run completed, not a copy or a re-render.
	trace, _, _ := jobs[0].artifact(obs.ArtifactTrace)
	for i, j := range jobs {
		if b, _, _ := j.artifact(obs.ArtifactTrace); len(b) == 0 || &b[0] != &trace[0] {
			t.Fatalf("job %d serves its own trace bytes, not the leader's rendering", i)
		}
	}
	// Late submissions may land after the leader finished and hit the
	// completed entry instead of the flight; either way none of the
	// n-1 repeats executed.
	stats, ok := sched.CacheStats()
	if !ok || stats.Coalesced+stats.Hits != n-1 {
		t.Errorf("coalesced %d + hits %d (ok=%t), want %d total", stats.Coalesced, stats.Hits, ok, n-1)
	}
}

// TestResubmitAfterCancelledQueuedLeader: a cacheable job cancelled
// while queued retires its flight before its done channel closes, so a
// client that waits for the cancellation and resubmits gets a fresh
// run. When the flight stayed until a worker dispatched the dead job,
// the resubmission coalesced onto it and ended cancelled too.
func TestResubmitAfterCancelledQueuedLeader(t *testing.T) {
	release := make(chan struct{})
	var sched *Scheduler
	sched = newScheduler(Config{Workers: 1, QueueDepth: 4, CacheEntries: 64},
		func(ctx context.Context, j *Job) {
			if j.Req.Type == JobExperiment {
				<-release // the long job holds the only worker
				j.finish(StateCancelled, "released")
				return
			}
			sched.execute(ctx, j)
		})
	defer sched.Close()

	long, err := sched.Submit(stubReq())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, long, StateRunning)
	req := JobRequest{Type: JobObserved, Requests: 60, Quick: true, Seed: 9}
	a, err := sched.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	a.requestCancel()
	<-a.Done()
	again, err := sched.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	select {
	case <-again.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("resubmission after a cancelled queued job never finished")
	}
	if v := again.snapshot(); v.State != StateDone || v.Cached {
		t.Fatalf("resubmission after a cancelled queued job ended %s (cached %t, error %q), want a fresh done run",
			v.State, v.Cached, v.Error)
	}
	if st, _ := sched.CacheStats(); st.Coalesced != 0 {
		t.Errorf("resubmission coalesced onto the cancelled job: %+v", st)
	}
}

// TestCacheDisabledByDefault: the zero Config neither caches nor
// coalesces — every identical submission runs.
func TestCacheDisabledByDefault(t *testing.T) {
	var runs int32
	sched := newScheduler(Config{Workers: 1, QueueDepth: 8},
		func(ctx context.Context, j *Job) {
			atomic.AddInt32(&runs, 1)
			j.finish(StateDone, "")
		})
	defer sched.Close()
	for i := 0; i < 3; i++ {
		j, err := sched.Submit(stubReq())
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if j.snapshot().Cached {
			t.Fatal("cache-disabled scheduler served a cached job")
		}
	}
	if got := atomic.LoadInt32(&runs); got != 3 {
		t.Fatalf("%d runs for 3 submissions with caching off, want 3", got)
	}
	if _, ok := sched.CacheStats(); ok {
		t.Error("CacheStats reports enabled with CacheEntries 0")
	}
}

// TestCacheLRUEviction: the cache holds at most CacheEntries entries
// and evicts least-recently-used first.
func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.publish("a", &jobResultEntry{})
	c.publish("b", &jobResultEntry{})
	if _, ok := c.getJob("a"); !ok { // bump a; b is now LRU
		t.Fatal("entry a missing")
	}
	c.publish("c", &jobResultEntry{})
	if _, ok := c.getJob("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.getJob("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats %+v, want 2 entries, 1 eviction", st)
	}
}

// TestCoalescedFollowerMirrorsCancel: followers of a cancelled leader
// report cancelled, not done, and a follower cancelled on its own is
// not resurrected by the leader finishing.
func TestCoalescedFollowerMirrorsCancel(t *testing.T) {
	started := make(chan *Job, 1)
	proceed := make(chan struct{})
	sched := newScheduler(Config{Workers: 1, QueueDepth: 4, CacheEntries: 64},
		func(ctx context.Context, j *Job) {
			started <- j
			<-proceed
			<-ctx.Done()
			j.finish(StateCancelled, ctx.Err().Error())
		})
	defer sched.Close()

	leader, err := sched.Submit(stubReq())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	follower, err := sched.Submit(stubReq())
	if err != nil {
		t.Fatal(err)
	}
	if follower == leader {
		t.Fatal("second submission was not a distinct job")
	}
	leader.requestCancel()
	close(proceed)
	<-leader.Done()
	<-follower.Done()
	if st := follower.snapshot().State; st != StateCancelled {
		t.Fatalf("follower of cancelled leader ended %s, want cancelled", st)
	}
}

// TestSubmitStatusTaxonomyHTTP: through the full HTTP path, a request
// that fails validation is a 400 and a valid one a 202. Every Submit
// error's status, 500 for an error no sentinel matches included, is
// pinned against submitErrorStatus in server_test.go.
func TestSubmitStatusTaxonomyHTTP(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 2}, func(ctx context.Context, j *Job) {
		j.finish(StateDone, "")
	})
	resp := postJSON(t, ts.URL+"/v1/jobs", `{"type":"experiment","experiment":"no-such-figure"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown experiment: status %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/jobs", `{"type":"experiment","experiment":"area","quick":true}`)
	view := decodeView(t, resp)
	if resp.StatusCode != http.StatusAccepted || view.Experiment != "area" {
		t.Errorf("valid submit: status %d view %+v", resp.StatusCode, view)
	}
}
