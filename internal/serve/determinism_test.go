package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"accelflow/internal/experiments"
	"accelflow/internal/obs"
	"accelflow/internal/sim"
	"accelflow/internal/workload"
)

// TestDeterminismExperimentOverHTTP: an experiment submitted through
// the daemon produces exactly the Values a direct Registry invocation
// with the same options produces — HTTP adds transport, not noise.
func TestDeterminismExperimentOverHTTP(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 2}, nil)

	id := submitAndWait(t, ts.URL,
		`{"type":"experiment","experiment":"fig19","quick":true,"requests":40,"seed":3,"parallelism":2}`)
	var got struct {
		Values map[string]float64 `json:"values"`
		Lines  []string           `json:"lines"`
	}
	body := fetchBytes(t, ts.URL+"/v1/jobs/"+id+"/values")
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}

	want, err := experiments.Registry["fig19"](experiments.Options{
		Requests: 40, Seed: 3, Quick: true, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("daemon returned %d values, direct run %d", len(got.Values), len(want.Values))
	}
	for k, w := range want.Values {
		g, ok := got.Values[k]
		if !ok {
			t.Errorf("daemon values missing %q", k)
			continue
		}
		if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Errorf("value %q: daemon %v, direct %v", k, g, w)
		}
	}
	if len(got.Lines) != len(want.Lines) {
		t.Fatalf("daemon returned %d lines, direct run %d", len(got.Lines), len(want.Lines))
	}
	for i := range want.Lines {
		if got.Lines[i] != want.Lines[i] {
			t.Errorf("line %d: daemon %q, direct %q", i, got.Lines[i], want.Lines[i])
		}
	}
}

// TestDeterminismArtifactsOverHTTP: the trace and report an observed
// job serves are byte-identical to a direct BuildObserved+Run with the
// same parameters — the daemon's core reproducibility guarantee.
func TestDeterminismArtifactsOverHTTP(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 2}, nil)

	id := submitAndWait(t, ts.URL,
		`{"type":"observed","requests":150,"quick":true,"seed":7,"faultRate":2000,"faultWindowUs":200,"faultLoss":0.001}`)

	spec, sink, err := workload.BuildObserved(workload.ObservedParams{
		Seed:        7,
		Requests:    150,
		Quick:       true,
		FaultRate:   2000,
		FaultWindow: 200 * sim.Microsecond,
		FaultLoss:   0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Run(); err != nil {
		t.Fatal(err)
	}

	for _, kind := range obs.Artifacts() {
		got := fetchBytes(t, fmt.Sprintf("%s/v1/jobs/%s/artifacts/%s", ts.URL, id, kind))
		var direct bytes.Buffer
		if err := sink.WriteArtifact(kind, &direct); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, direct.Bytes()) {
			t.Errorf("%s artifact diverged: daemon %d bytes, direct %d bytes",
				kind, len(got), direct.Len())
		}
		if len(got) == 0 {
			t.Errorf("%s artifact is empty", kind)
		}
	}
}

// TestDeterminismRepeatSubmission: the same request submitted twice to
// the same daemon yields identical artifacts — job identity does not
// leak into results.
func TestDeterminismRepeatSubmission(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, QueueDepth: 4}, nil)

	body := `{"type":"observed","requests":120,"quick":true,"seed":11}`
	a := submitAndWait(t, ts.URL, body)
	b := submitAndWait(t, ts.URL, body)
	for _, kind := range obs.Artifacts() {
		ab := fetchBytes(t, fmt.Sprintf("%s/v1/jobs/%s/artifacts/%s", ts.URL, a, kind))
		bb := fetchBytes(t, fmt.Sprintf("%s/v1/jobs/%s/artifacts/%s", ts.URL, b, kind))
		if !bytes.Equal(ab, bb) {
			t.Errorf("%s artifact differs between identical jobs %s and %s", kind, a, b)
		}
	}
}

// TestDeterminismCheckedDaemon: a daemon booted with -check produces
// byte-identical artifacts and values to an unchecked one — the
// invariant checker rides along without touching results, and every
// checked job still completes (no false violations on real runs).
func TestDeterminismCheckedDaemon(t *testing.T) {
	_, plain := testServer(t, Config{Workers: 1, QueueDepth: 2}, nil)
	_, checked := testServer(t, Config{Workers: 1, QueueDepth: 2, Check: true}, nil)

	obsBody := `{"type":"observed","requests":120,"quick":true,"seed":11,"faultRate":2000}`
	pa := submitAndWait(t, plain.URL, obsBody)
	ca := submitAndWait(t, checked.URL, obsBody)
	for _, kind := range obs.Artifacts() {
		pb := fetchBytes(t, fmt.Sprintf("%s/v1/jobs/%s/artifacts/%s", plain.URL, pa, kind))
		cb := fetchBytes(t, fmt.Sprintf("%s/v1/jobs/%s/artifacts/%s", checked.URL, ca, kind))
		if !bytes.Equal(pb, cb) {
			t.Errorf("%s artifact differs between unchecked and checked daemons", kind)
		}
	}

	expBody := `{"type":"experiment","experiment":"fig19","quick":true,"requests":40,"seed":3}`
	pe := submitAndWait(t, plain.URL, expBody)
	ce := submitAndWait(t, checked.URL, expBody)
	pv := fetchBytes(t, plain.URL+"/v1/jobs/"+pe+"/values")
	cv := fetchBytes(t, checked.URL+"/v1/jobs/"+ce+"/values")
	if !bytes.Equal(pv, cv) {
		t.Errorf("experiment values differ between unchecked and checked daemons:\n%s\nvs\n%s", pv, cv)
	}
}
