package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"accelflow/internal/experiments"
)

// testServer boots a scheduler (real runner unless runFn is given)
// behind an httptest server.
func testServer(t *testing.T, cfg Config, runFn func(context.Context, *Job)) (*Scheduler, *httptest.Server) {
	t.Helper()
	sched := newScheduler(cfg, runFn)
	ts := httptest.NewServer(NewServer(sched).Handler())
	t.Cleanup(func() {
		ts.Close()
		sched.Close()
	})
	return sched, ts
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeView(t *testing.T, resp *http.Response) JobView {
	t.Helper()
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// drainProgress reads the NDJSON progress stream to EOF (a completion
// barrier), validating every line parses and returning the events.
func drainProgress(t *testing.T, url string) []Event {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("progress: Content-Type %q", ct)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// Keep-alive lines are not job events; the stream contract says
		// to skip them (see handleProgress).
		if bytes.Contains(line, []byte(`"type":"heartbeat"`)) {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("progress line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestSubmitPollFetch walks the happy path over HTTP: submit an
// experiment job, follow its progress stream to completion, then poll
// status and fetch values.
func TestSubmitPollFetch(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 4}, nil)

	resp := postJSON(t, ts.URL+"/v1/jobs",
		`{"type":"experiment","experiment":"fig19","quick":true,"requests":40,"seed":3,"parallelism":2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc == "" {
		t.Fatal("submit: no Location header")
	}
	view := decodeView(t, resp)
	if view.ID == "" || view.Type != JobExperiment {
		t.Fatalf("submit view: %+v", view)
	}

	evs := drainProgress(t, ts.URL+"/v1/jobs/"+view.ID+"/progress")
	if len(evs) < 3 {
		t.Fatalf("only %d progress events", len(evs))
	}
	if evs[0].Event != "queued" {
		t.Errorf("first event %q, want queued", evs[0].Event)
	}
	last := evs[len(evs)-1]
	if last.Event != "done" || last.State != StateDone {
		t.Fatalf("last event %+v, want done/done", last)
	}
	cells := 0
	for _, ev := range evs {
		if ev.Event == "cell" {
			cells++
			if ev.Total != 3 { // fig19 sweeps 8/4/2 PEs
				t.Errorf("cell event total = %d, want 3", ev.Total)
			}
		}
	}
	if cells != 3 {
		t.Errorf("%d cell events, want 3", cells)
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}

	statusResp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeView(t, statusResp); got.State != StateDone || got.CellsDone != 3 {
		t.Fatalf("status after completion: %+v", got)
	}

	valResp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/values")
	if err != nil {
		t.Fatal(err)
	}
	defer valResp.Body.Close()
	if valResp.StatusCode != http.StatusOK {
		t.Fatalf("values: status %d", valResp.StatusCode)
	}
	var out struct {
		Values map[string]float64 `json:"values"`
		Lines  []string           `json:"lines"`
	}
	if err := json.NewDecoder(valResp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Values) == 0 || len(out.Lines) == 0 {
		t.Fatalf("empty results: %d values, %d lines", len(out.Values), len(out.Lines))
	}
	if _, ok := out.Values["8pe/p99us"]; !ok {
		t.Error("fig19 values missing 8pe/p99us")
	}

	// Experiment jobs expose no artifacts.
	artResp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/artifacts/trace")
	if err != nil {
		t.Fatal(err)
	}
	artResp.Body.Close()
	if artResp.StatusCode != http.StatusNotFound {
		t.Errorf("experiment artifact: status %d, want 404", artResp.StatusCode)
	}
}

// TestQueueFullHTTP: a full queue answers 429 with a Retry-After hint.
func TestQueueFullHTTP(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second},
		func(ctx context.Context, j *Job) {
			started <- struct{}{}
			<-release
			j.finish(StateDone, "")
		})
	defer close(release)

	body := `{"type":"experiment","experiment":"area","quick":true}`
	resp := postJSON(t, ts.URL+"/v1/jobs", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	<-started
	resp = postJSON(t, ts.URL+"/v1/jobs", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/jobs", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
}

// TestCancelMidJobHTTP: cancelling an in-flight observed job over the
// API stops its simulation via context and reports "cancelled".
func TestCancelMidJobHTTP(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 2}, nil)

	// A large observed run: long enough that cancellation lands while
	// the kernel is executing events.
	resp := postJSON(t, ts.URL+"/v1/jobs", `{"type":"observed","requests":20000,"seed":9}`)
	view := decodeView(t, resp)

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		v := decodeView(t, st)
		if v.State == StateRunning {
			break
		}
		if v.State.Terminal() {
			t.Fatalf("job finished %s before it could be cancelled; grow the run", v.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}

	cresp := postJSON(t, ts.URL+"/v1/jobs/"+view.ID+"/cancel", "")
	if got := decodeView(t, cresp); got.State != StateRunning && got.State != StateCancelled {
		t.Fatalf("cancel ack state %s", got.State)
	}
	evs := drainProgress(t, ts.URL+"/v1/jobs/"+view.ID+"/progress")
	last := evs[len(evs)-1]
	if last.Event != "done" || last.State != StateCancelled {
		t.Fatalf("last event %+v, want done/cancelled", last)
	}
	// A cancelled job serves neither values nor artifacts.
	vresp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/values")
	if err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	if vresp.StatusCode != http.StatusConflict {
		t.Errorf("values of cancelled job: status %d, want 409", vresp.StatusCode)
	}
}

// TestDrainRejectsHTTP: a draining scheduler answers 503 + Retry-After
// and finishes admitted work (graceful SIGTERM path minus the signal).
func TestDrainRejectsHTTP(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	sched, ts := testServer(t, Config{Workers: 1, QueueDepth: 2},
		func(ctx context.Context, j *Job) {
			started <- struct{}{}
			<-release
			j.finish(StateDone, "")
		})

	resp := postJSON(t, ts.URL+"/v1/jobs", `{"type":"experiment","experiment":"area","quick":true}`)
	view := decodeView(t, resp)
	<-started
	sched.StartDrain()

	resp = postJSON(t, ts.URL+"/v1/jobs", `{"type":"experiment","experiment":"area","quick":true}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	var health struct {
		Draining bool `json:"draining"`
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if !health.Draining {
		t.Fatal("healthz does not report draining")
	}

	close(release)
	if err := sched.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	j, err := sched.Get(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.snapshot().State; st != StateDone {
		t.Fatalf("admitted job state %s after drain, want done", st)
	}
}

// TestNotFoundAndBadRequests covers the 4xx surface.
func TestNotFoundAndBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 2}, nil)

	for _, url := range []string{
		"/v1/jobs/job-404",
		"/v1/jobs/job-404/values",
		"/v1/jobs/job-404/progress",
		"/v1/jobs/job-404/artifacts/trace",
	} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", url, resp.StatusCode)
		}
	}
	for _, body := range []string{
		`not json`,
		`{"type":"experiment"}`,
		`{"type":"experiment","experiment":"nope"}`,
		`{"type":"observed","faultLoss":2}`,
		`{"type":"observed","faultRate":1e8}`, // ~1e8 fault windows booked at load time
		`{"type":"experiment","experiment":"fig11","bogusField":1}`,
		`{"type":"observed","shards":2}`,        // removed field: a stale client gets a 400
		`{"type":"observed","requests":100001}`, // over the request cap
		// A mean fault gap past the clock's range: before Validate caught
		// it, this drew ~1e9 windows and the daemon died out of memory.
		`{"type":"observed","requests":20,"quick":true,"seed":1,"faultRate":1e-7}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/jobs", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// The rejected requests never reached a worker: a valid job still
	// runs to completion.
	submitAndWait(t, ts.URL, `{"type":"observed","requests":60,"quick":true,"seed":1}`)

	// Listing and registry endpoints respond.
	lr, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	er, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var exps struct {
		Experiments []string `json:"experiments"`
	}
	if err := json.NewDecoder(er.Body).Decode(&exps); err != nil {
		t.Fatal(err)
	}
	er.Body.Close()
	if len(exps.Experiments) == 0 {
		t.Fatal("experiments listing is empty")
	}
}

// TestTwoBadFieldsSameBody: a request with two bad fields is answered
// with the same 400 body on every submission, and that body names the
// field checked first: top-level fields in Validate's order, knobs in
// knobs order, and space entries in SpaceSpec.Build's order (peMix by
// accelerator kind, unknown kinds by name), never in map order.
func TestTwoBadFieldsSameBody(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 2}, nil)
	for _, tc := range []struct {
		name, body, want, other string
	}{
		{"top-level fields", `{"type":"observed","requests":-1,"parallelism":-1}`,
			"requests must be", "parallelism"},
		{"observed knobs", `{"type":"observed","faultRate":-1,"faultLoss":2}`,
			"fault rate must be", "fault loss"},
		{"tune space levels", `{"type":"tune","space":{"peMix":{"Ser":[0],"TCP":[0]}}}`,
			"peMix[TCP]", "peMix[Ser]"},
		{"tune space kinds", `{"type":"tune","space":{"peMix":{"Zeta":[1],"Alpha":[1]}}}`,
			"Alpha", "Zeta"},
	} {
		var first string
		for i := 0; i < 32; i++ {
			resp := postJSON(t, ts.URL+"/v1/jobs", tc.body)
			msg, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: status %d body %q, want 400", tc.name, resp.StatusCode, msg)
			}
			if i == 0 {
				first = string(msg)
				if !strings.Contains(first, tc.want) || strings.Contains(first, tc.other) {
					t.Errorf("%s: body %q, want it to name %s and not %s", tc.name, first, tc.want, tc.other)
				}
			} else if string(msg) != first {
				t.Fatalf("%s: submission %d answered %q, first answered %q", tc.name, i, msg, first)
			}
		}
	}
}

// fetchBytes GETs a URL and returns the body, failing on non-200.
func fetchBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d (%s)", url, resp.StatusCode, body)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// submitAndWait submits a job and blocks until it completes.
func submitAndWait(t *testing.T, base, body string) string {
	t.Helper()
	view := decodeView(t, postJSON(t, base+"/v1/jobs", body))
	evs := drainProgress(t, base+"/v1/jobs/"+view.ID+"/progress")
	last := evs[len(evs)-1]
	if last.State != StateDone {
		t.Fatalf("job %s ended %s: %s", view.ID, last.State, last.Error)
	}
	return view.ID
}

// TestRemovedReplicaCapRejected: replicaCap was an autoscale field
// that changed a job's ResultKey but no output byte, so a client still
// sending it gets a 400 naming the field rather than a cache slot of
// its own. The same control spec without it is admitted.
func TestRemovedReplicaCapRejected(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 2}, nil)
	const ctl = `"control":{"autoscale":{"target":"pe","upUtil":0.8,"downUtil":0.2%s}}`
	stale := `{"type":"observed","requests":60,"quick":true,` + fmt.Sprintf(ctl, `,"replicaCap":3`) + `}`
	resp := postJSON(t, ts.URL+"/v1/jobs", stale)
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "replicaCap") {
		t.Errorf("submit with replicaCap: status %d body %q, want 400 naming the field", resp.StatusCode, msg)
	}
	submitAndWait(t, ts.URL, `{"type":"observed","requests":60,"quick":true,`+fmt.Sprintf(ctl, "")+`}`)
}

// TestRemovedKnobsRejected: the autoscale and retry fields that only
// ever took their defaults are now constants, hill climbing is the
// only tune searcher, and one queue admits every job, so no request
// names a tenant or a priority. A body that still sets one of them is
// an unknown field: a 400 naming it, never a job that silently ignores
// it.
func TestRemovedKnobsRejected(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 2}, nil)
	for field, body := range map[string]string{
		"interval":    `{"type":"observed","control":{"autoscale":{"target":"pe","upUtil":0.8,"interval":50000}}}`,
		"window":      `{"type":"observed","control":{"autoscale":{"target":"pe","upUtil":0.8,"window":200000}}}`,
		"step":        `{"type":"observed","control":{"autoscale":{"target":"pe","upUtil":0.8,"step":1}}}`,
		"cooldown":    `{"type":"observed","control":{"autoscale":{"target":"pe","upUtil":0.8,"cooldown":2}}}`,
		"hold":        `{"type":"observed","control":{"autoscale":{"target":"pe","upUtil":0.8,"hold":1}}}`,
		"maxAttempts": `{"type":"observed","control":{"retry":{"budget":4,"maxAttempts":2}}}`,
		"backoff":     `{"type":"observed","control":{"retry":{"budget":4,"backoff":20000}}}`,
		"backoffCap":  `{"type":"observed","control":{"retry":{"budget":4,"backoffCap":160000}}}`,
		"strategy":    `{"type":"tune","strategy":"hill"}`,
		"tenant":      `{"type":"experiment","experiment":"area","quick":true,"tenant":"a"}`,
		"priority":    `{"type":"experiment","experiment":"area","quick":true,"priority":"batch"}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/jobs", body)
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `unknown field \"`+field+`\"`) {
			t.Errorf("submit with %s: status %d body %q, want 400 naming the field", field, resp.StatusCode, msg)
		}
	}
}

// TestUnencodableValuesFailJob: an experiment whose Values hold NaN,
// which JSON cannot encode, fails its job with an error naming those
// keys, /values answers 409 rather than 200 with an empty body, and
// nothing is cached: a resubmission runs again.
func TestUnencodableValuesFailJob(t *testing.T) {
	nan := math.NaN()
	experiments.Registry["nan"] = func(experiments.Options) (*experiments.Result, error) {
		return &experiments.Result{Name: "nan", Values: map[string]float64{
			"CannyEdge/ratio": nan, "HarrisCorner/ratio": nan, "avg_ratio": nan,
		}}, nil
	}
	t.Cleanup(func() { delete(experiments.Registry, "nan") })
	sched, ts := testServer(t, Config{Workers: 1, QueueDepth: 4, CacheEntries: 64}, nil)
	const body = `{"type":"experiment","experiment":"nan","requests":1,"quick":true}`
	for round := 0; round < 2; round++ {
		view := decodeView(t, postJSON(t, ts.URL+"/v1/jobs", body))
		evs := drainProgress(t, ts.URL+"/v1/jobs/"+view.ID+"/progress")
		if last := evs[len(evs)-1]; last.State != StateFailed {
			t.Fatalf("round %d: job ended %s, want failed", round, last.State)
		}
		got := jobView(t, ts.URL, view.ID)
		if got.Cached {
			t.Errorf("round %d: failed job served from cache", round)
		}
		for _, key := range []string{`"CannyEdge/ratio" is NaN`, `"HarrisCorner/ratio" is NaN`, `"avg_ratio" is NaN`} {
			if !strings.Contains(got.Error, key) {
				t.Errorf("round %d: error %q does not name %s", round, got.Error, key)
			}
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/values")
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || !strings.Contains(string(msg), "finished failed") {
			t.Errorf("round %d: values: status %d body %q, want 409 finished failed", round, resp.StatusCode, msg)
		}
	}
	if st, _ := sched.CacheStats(); st.Hits != 0 {
		t.Errorf("failed job reached the cache: %+v", st)
	}
}

// TestConcurrentArtifactDownloads streams the same finished job's
// trace to several clients at once (exports are read-only).
func TestConcurrentArtifactDownloads(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 2}, nil)
	id := submitAndWait(t, ts.URL, `{"type":"observed","requests":120,"quick":true,"seed":4}`)

	want := fetchBytes(t, ts.URL+"/v1/jobs/"+id+"/artifacts/trace")
	results := make(chan []byte, 4)
	for i := 0; i < 4; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifacts/trace")
			if err != nil {
				results <- nil
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			results <- b
		}()
	}
	for i := 0; i < 4; i++ {
		got := <-results
		if !bytes.Equal(got, want) {
			t.Fatalf("concurrent download %d diverged (%d vs %d bytes)", i, len(got), len(want))
		}
	}
}

// TestProgressHeartbeat: while a job is idle (no new events), the
// progress stream emits flushed {"type":"heartbeat"} keep-alive lines
// so proxies with idle timeouts keep the connection open, and the
// event sequence around them is undisturbed.
func TestProgressHeartbeat(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	sched := newScheduler(Config{Workers: 1, QueueDepth: 2},
		func(ctx context.Context, j *Job) {
			started <- struct{}{}
			<-release
			j.finish(StateDone, "")
		})
	api := NewServer(sched)
	api.SetHeartbeat(20 * time.Millisecond)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(func() {
		ts.Close()
		sched.Close()
	})

	j, err := sched.Submit(stubReq())
	if err != nil {
		t.Fatal(err)
	}
	<-started

	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	beats, events := 0, 0
	released := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if string(line) == `{"type":"heartbeat"}` {
			beats++
			// Two heartbeats with no job activity prove the keep-alive
			// fires periodically, not just once; then let the job end.
			if beats == 2 && !released {
				released = true
				close(release)
			}
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("progress line %q: %v", line, err)
		}
		if ev.Seq != events {
			t.Errorf("event seq %d at position %d: heartbeats must not consume sequence numbers", ev.Seq, events)
		}
		events++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !released {
		close(release)
		t.Fatalf("stream ended after %d heartbeats, want 2 before release", beats)
	}
	if events < 3 { // queued, started, done
		t.Errorf("%d job events, want >= 3", events)
	}
}

// TestSubmitErrorStatus pins the submit error taxonomy: only
// validation errors are 400s, and unrecognized failures surface as 500.
func TestSubmitErrorStatus(t *testing.T) {
	cases := []struct {
		err  error
		code int
	}{
		{badRequestf("serve: bad field"), http.StatusBadRequest},
		{ErrQueueFull, http.StatusTooManyRequests},
		{ErrDraining, http.StatusServiceUnavailable},
		{errors.New("scheduler exploded"), http.StatusInternalServerError},
		{context.DeadlineExceeded, http.StatusInternalServerError},
	}
	for _, c := range cases {
		if code := submitErrorStatus(c.err); code != c.code {
			t.Errorf("submitErrorStatus(%v) = %d, want %d", c.err, code, c.code)
		}
	}
	// Every Validate failure must map to 400 via the sentinel.
	if err := (JobRequest{Type: "nope"}).Validate(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("Validate error %v does not match ErrBadRequest", err)
	}
}
