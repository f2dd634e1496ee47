package serve

import (
	"testing"

	"accelflow/internal/control"
)

// observedKey validates an observed request and returns its result key.
func observedKey(t *testing.T, r JobRequest) string {
	t.Helper()
	r.Type = JobObserved
	if err := r.Validate(); err != nil {
		t.Fatalf("request %+v: %v", r, err)
	}
	k := r.ResultKey()
	if k == "" {
		t.Fatalf("request %+v has no result key", r)
	}
	return k
}

// TestObservedResultKeyEquivalence: requests that build the same
// simulation share a key, each next to a near miss that does not. The
// budget joins after BuildObserved's normalization (<= 0 takes 2500,
// Quick caps at 600), so Quick itself is no part of the key; a fault
// window attaches nothing while both fault knobs are off; parallelism
// and Env.Check never change a byte.
func TestObservedResultKeyEquivalence(t *testing.T) {
	ctl := &control.Spec{Shed: &control.ShedSpec{Queue: 64}}
	cases := []struct {
		name string
		a, b JobRequest
		same bool
	}{
		{"requests 0 is the default 2500", JobRequest{}, JobRequest{Requests: 2500}, true},
		{"but not 2499", JobRequest{}, JobRequest{Requests: 2499}, false},
		{"quick caps 1000 at 600", JobRequest{Requests: 1000, Quick: true}, JobRequest{Requests: 600, Quick: true}, true},
		{"quick 600 is non-quick 600", JobRequest{Requests: 600, Quick: true}, JobRequest{Requests: 600}, true},
		{"quick default is 600", JobRequest{Quick: true}, JobRequest{Requests: 600}, true},
		{"quick 1000 is not 601", JobRequest{Requests: 1000, Quick: true}, JobRequest{Requests: 601}, false},
		{"quick below the cap", JobRequest{Requests: 300, Quick: true}, JobRequest{Requests: 300}, true},
		{"fault window with faults off", JobRequest{FaultWindowUs: 500}, JobRequest{}, true},
		{"fault window with faults off, controlled", JobRequest{FaultWindowUs: 500, Control: ctl}, JobRequest{Control: ctl}, true},
		{"default fault window", JobRequest{FaultRate: 2000, FaultWindowUs: 200}, JobRequest{FaultRate: 2000}, true},
		{"execution knobs", JobRequest{Seed: 3, Parallelism: 4}, JobRequest{Seed: 3}, true},
	}
	for _, c := range cases {
		if got := observedKey(t, c.a) == observedKey(t, c.b); got != c.same {
			t.Errorf("%s: %+v and %+v share a key: %t, want %t", c.name, c.a, c.b, got, c.same)
		}
	}
	r := JobRequest{Type: JobObserved, Seed: 3, FaultRate: 2000}
	plain, err := r.observedParams(Env{}).Key()
	if err != nil {
		t.Fatal(err)
	}
	checked, err := r.observedParams(Env{Check: true}).Key()
	if err != nil {
		t.Fatal(err)
	}
	if plain != checked {
		t.Error("Env.Check changed the key")
	}
}

// TestObservedResultKeySensitivity: every parameter that reaches the
// simulation moves the key — seed, effective budget, each fault knob
// (the window once faults are on) and the control spec.
func TestObservedResultKeySensitivity(t *testing.T) {
	base := JobRequest{Seed: 1, Requests: 300, FaultRate: 2000, FaultWindowUs: 100, FaultLoss: 0.001,
		Control: &control.Spec{Autoscale: &control.AutoscaleSpec{Target: control.TargetPE, UpUtil: 0.8, DownUtil: 0.2}}}
	variants := []struct {
		name string
		edit func(*JobRequest)
	}{
		{"seed", func(r *JobRequest) { r.Seed = 2 }},
		{"budget", func(r *JobRequest) { r.Requests = 301 }},
		{"quick budget", func(r *JobRequest) { r.Requests, r.Quick = 1000, true }},
		{"faultRate", func(r *JobRequest) { r.FaultRate = 3000 }},
		{"faultRate off", func(r *JobRequest) { r.FaultRate = 0 }},
		{"faultWindowUs", func(r *JobRequest) { r.FaultWindowUs = 150 }},
		{"faultLoss", func(r *JobRequest) { r.FaultLoss = 0.002 }},
		{"faultLoss off", func(r *JobRequest) { r.FaultLoss = 0 }},
		{"faults off", func(r *JobRequest) { r.FaultRate, r.FaultWindowUs, r.FaultLoss = 0, 0, 0 }},
		{"control", func(r *JobRequest) {
			r.Control = &control.Spec{Autoscale: &control.AutoscaleSpec{Target: control.TargetPE, UpUtil: 0.7, DownUtil: 0.2}}
		}},
		{"control target", func(r *JobRequest) {
			r.Control = &control.Spec{Autoscale: &control.AutoscaleSpec{Target: control.TargetCores, UpUtil: 0.8, DownUtil: 0.2}}
		}},
		{"no control", func(r *JobRequest) { r.Control = nil }},
	}
	seen := map[string]string{observedKey(t, base): "base"}
	for _, v := range variants {
		r := base
		v.edit(&r)
		k := observedKey(t, r)
		if prev, ok := seen[k]; ok {
			t.Errorf("%s: same key as %s", v.name, prev)
		}
		seen[k] = v.name
	}
}
