package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"accelflow/internal/experiments"
	"accelflow/internal/tune"
)

// tuneBody is the suite's small-but-real search request; tuneParamsFor
// mirrors it for direct tune.Run comparisons.
const tuneBody = `{"type":"tune","objective":"p99","seed":7,"requests":60,"quick":true,` +
	`"generations":3,"patience":3,` +
	`"space":{"chiplets":[2,1],"pes":[8,4],"policies":["accelflow","relief"]}}`

func tuneParamsFor() tune.Params {
	return tune.Params{
		Objective: "p99",
		Space: tune.SpaceSpec{
			Chiplets: []int{2, 1},
			PEs:      []int{8, 4},
			Policies: []string{"accelflow", "relief"},
		},
		Seed:           7,
		Requests:       60,
		Quick:          true,
		MaxGenerations: 3,
		Patience:       3,
	}
}

// TestTuneJobEndToEnd drives a tune job over HTTP: per-generation
// NDJSON progress with the search payload, then values with the final
// best.
func TestTuneJobEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 4}, nil)

	resp := postJSON(t, ts.URL+"/v1/jobs", tuneBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	view := decodeView(t, resp)
	if view.Type != JobTune {
		t.Fatalf("view type %q, want tune", view.Type)
	}

	evs := drainProgress(t, ts.URL+"/v1/jobs/"+view.ID+"/progress")
	last := evs[len(evs)-1]
	if last.Event != "done" || last.State != StateDone {
		t.Fatalf("last event %+v, want done/done (error %q)", last, last.Error)
	}
	gens, cells := 0, 0
	lastBest := 0.0
	for _, ev := range evs {
		switch ev.Event {
		case "generation":
			if ev.Tune == nil {
				t.Fatalf("generation event without tune payload: %+v", ev)
			}
			if ev.Tune.Gen != gens {
				t.Errorf("generation %d out of order (payload gen %d)", gens, ev.Tune.Gen)
			}
			if ev.Tune.BestKey == "" || ev.Tune.TotalEvals == 0 {
				t.Errorf("generation payload incomplete: %+v", ev.Tune)
			}
			if gens > 0 && ev.Tune.BestScore > lastBest {
				t.Errorf("bestScore rose across generations: %.4f -> %.4f", lastBest, ev.Tune.BestScore)
			}
			lastBest = ev.Tune.BestScore
			gens++
		case "cell":
			cells++
			if ev.Tune != nil {
				t.Errorf("cell event carries a tune payload")
			}
		}
	}
	if gens < 2 {
		t.Fatalf("%d generation events, want >= 2", gens)
	}
	if cells == 0 {
		t.Fatal("tune job emitted no cell events")
	}

	var out struct {
		Values map[string]float64 `json:"values"`
		Lines  []string           `json:"lines"`
	}
	if err := json.Unmarshal(fetchBytes(t, ts.URL+"/v1/jobs/"+view.ID+"/values"), &out); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"bestScore", "generations", "evals", "cacheHits", "converged", "bestP99Us"} {
		if _, ok := out.Values[key]; !ok {
			t.Errorf("values missing %q: %v", key, out.Values)
		}
	}
	if out.Values["generations"] != float64(gens) {
		t.Errorf("values generations = %v, %d generation events", out.Values["generations"], gens)
	}
	if len(out.Lines) < 2 {
		t.Errorf("tune job rendered %d lines, want >= 2", len(out.Lines))
	}
}

// TestTuneJobMatchesDirectRun pins the serve determinism contract for
// tune jobs: the daemon's outcome is byte-for-byte the library's.
func TestTuneJobMatchesDirectRun(t *testing.T) {
	direct, err := tune.Run(context.Background(), tuneParamsFor(), nil, tune.Hooks{})
	if err != nil {
		t.Fatal(err)
	}

	_, ts := testServer(t, Config{Workers: 2, QueueDepth: 4}, nil)
	id := submitAndWait(t, ts.URL, tuneBody)
	var out struct {
		Values map[string]float64 `json:"values"`
		Lines  []string           `json:"lines"`
	}
	if err := json.Unmarshal(fetchBytes(t, ts.URL+"/v1/jobs/"+id+"/values"), &out); err != nil {
		t.Fatal(err)
	}
	if got, want := out.Values["bestScore"], direct.BestScore; got != want {
		t.Errorf("job bestScore %v, direct run %v", got, want)
	}
	if got, want := out.Values["generations"], float64(direct.Generations); got != want {
		t.Errorf("job generations %v, direct run %v", got, want)
	}
	if got, want := out.Values["evals"], float64(direct.Evals); got != want {
		t.Errorf("job evals %v, direct run %v", got, want)
	}
	if got, want := out.Values["converged"], boolVal(direct.Converged); got != want {
		t.Errorf("job converged %v, direct run %v", got, want)
	}
}

// TestTuneResubmissionMatchesRun: a tune job cancelled after its
// first evaluation and then resubmitted serves the /values bytes that
// Run computes for the same request, cacheHits included. Nothing the
// cancelled run evaluated may leak into the resubmission. An identical
// submission after that is a job-cache hit with the same bytes.
func TestTuneResubmissionMatchesRun(t *testing.T) {
	// Parallelism is execution-only: one worker runs the evaluations
	// one at a time, so the cancel lands long before the search ends.
	body := strings.Replace(tuneBody, "{", `{"parallelism":1,`, 1)
	var req JobRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	direct, err := Run(context.Background(), req, Env{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderValues(direct.Values, direct.Lines)
	if err != nil {
		t.Fatal(err)
	}

	// The first job cancels itself inside its first evaluation's cell
	// hook, so the search sees the cancel before its next generation
	// whatever the goroutine timing.
	var sched *Scheduler
	first := true
	sched, ts := testServer(t, Config{Workers: 1, QueueDepth: 4, CacheEntries: 256},
		func(ctx context.Context, j *Job) {
			if !first {
				sched.execute(ctx, j)
				return
			}
			first = false
			_, err := Run(ctx, j.Req, Env{OnCell: func(ev experiments.CellEvent) {
				j.cellDone(ev)
				j.requestCancel()
			}})
			if err == nil {
				j.finish(StateDone, "")
				return
			}
			j.finish(classify(ctx, err), err.Error())
		})

	cancelled := decodeView(t, postJSON(t, ts.URL+"/v1/jobs", body))
	evs := drainProgress(t, ts.URL+"/v1/jobs/"+cancelled.ID+"/progress")
	if last := evs[len(evs)-1]; last.State != StateCancelled {
		t.Fatalf("the first search, cancelled at its first evaluation, ended %s", last.State)
	}
	for _, cached := range []bool{false, true} {
		id := submitAndWait(t, ts.URL, body)
		if v := jobView(t, ts.URL, id); v.Cached != cached {
			t.Errorf("job %s: cached %t, want %t", id, v.Cached, cached)
		}
		got := fetchBytes(t, ts.URL+"/v1/jobs/"+id+"/values")
		if exp := append([]byte(`{"id":"`+id+`",`), want...); !bytes.Equal(got, exp) {
			t.Errorf("job %s /values:\n%s\nRun on the same request:\n%s", id, got, exp)
		}
	}
}

// TestTuneValidation covers the tune-specific 400 surface.
func TestTuneValidation(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 2}, nil)
	for _, body := range []string{
		`{"type":"tune","objective":"latency"}`,
		`{"type":"tune","space":{"policies":["fifo"]}}`,
		`{"type":"tune","space":{"chiplets":[5]}}`,
		`{"type":"tune","generations":-1}`,
		`{"type":"tune","sloUs":-5}`,
		`{"type":"tune","experiment":"area"}`,
		`{"type":"tune","faultRate":0.5}`,
		`{"type":"experiment","experiment":"area","objective":"p99"}`,
		`{"type":"observed","objective":"p99"}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/jobs", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	// A minimal tune request is valid: defaults fill everything.
	if err := (JobRequest{Type: JobTune}).Validate(); err != nil {
		t.Errorf("zero-value tune request invalid: %v", err)
	}
}

// TestUnknownPEMixKindsStableError: a space naming two unknown
// accelerator kinds gets the same 400 body on every submission, naming
// the first kind in sorted order, whatever the map's iteration order.
func TestUnknownPEMixKindsStableError(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 2}, nil)
	const body = `{"type":"tune","space":{"peMix":{"Nope":[4],"Zzz":[4]}}}`
	var first string
	for i := 0; i < 32; i++ {
		resp := postJSON(t, ts.URL+"/v1/jobs", body)
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submission %d: status %d, want 400", i, resp.StatusCode)
		}
		if i == 0 {
			first = string(msg)
			if !strings.Contains(first, "Nope") {
				t.Fatalf("400 body %q does not name the first unknown kind", first)
			}
		} else if string(msg) != first {
			t.Fatalf("submission %d: 400 body %q, first was %q", i, msg, first)
		}
	}
}

// TestListFilters exercises GET /v1/jobs?state=&type=: each filter
// alone and both together, and a 400 for an unknown filter value or
// query parameter.
func TestListFilters(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 8},
		func(ctx context.Context, j *Job) { j.finish(StateDone, "") })

	for _, body := range []string{
		`{"type":"experiment","experiment":"area","quick":true}`,
		`{"type":"experiment","experiment":"fig19","quick":true}`,
		`{"type":"observed","requests":40,"quick":true}`,
	} {
		id := decodeView(t, postJSON(t, ts.URL+"/v1/jobs", body)).ID
		evs := drainProgress(t, ts.URL+"/v1/jobs/"+id+"/progress")
		if last := evs[len(evs)-1]; last.State != StateDone {
			t.Fatalf("stub job ended %s", last.State)
		}
	}

	list := func(query string) []JobView {
		t.Helper()
		var out struct {
			Jobs []JobView `json:"jobs"`
		}
		if err := json.Unmarshal(fetchBytes(t, ts.URL+"/v1/jobs"+query), &out); err != nil {
			t.Fatal(err)
		}
		return out.Jobs
	}

	if got := list(""); len(got) != 3 {
		t.Fatalf("unfiltered list has %d jobs, want 3", len(got))
	}
	if got := list("?type=observed"); len(got) != 1 || got[0].Type != JobObserved {
		t.Errorf("type=observed: %+v", got)
	}
	if got := list("?type=experiment&state=done"); len(got) != 2 || got[1].Experiment != "fig19" {
		t.Errorf("combined filter: %+v", got)
	}
	if got := list("?state=done"); len(got) != 3 {
		t.Errorf("state=done: %d jobs, want 3", len(got))
	}
	if got := list("?state=running"); len(got) != 0 {
		t.Errorf("state=running: %d jobs, want 0", len(got))
	}

	// Unknown filter values and parameters fail loudly; a parameter the
	// list no longer takes, such as tenant, never lists every job.
	for q, want := range map[string]string{
		"?state=paused": "paused",
		"?type=batch":   "batch",
		"?tenant=acme":  "tenant",
	} {
		resp, err := http.Get(ts.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), want) {
			t.Errorf("GET /v1/jobs%s: status %d body %q, want 400 naming %q", q, resp.StatusCode, msg, want)
		}
	}
}
