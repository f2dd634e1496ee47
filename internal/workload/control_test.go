package workload

import (
	"strings"
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/control"
	"accelflow/internal/engine"
	"accelflow/internal/fault"
	"accelflow/internal/services"
	"accelflow/internal/sim"
)

// controlledSpec is a single-server run where every control policy is
// live: a surge load pushes the PE autoscaler, a low queue threshold
// forces sheds, and a fault burst forces timeouts that exercise the
// retry budget (and the controller/injector SetServers composition).
func controlledSpec() *RunSpec {
	// Short enqueue backoff and a single timeout rearm make the fault
	// windows actually produce timeouts (the retry path's trigger),
	// mirroring the recovery experiment's configuration.
	cfg := config.Default()
	cfg.EnqueueBackoff = 200 * sim.Nanosecond
	cfg.TimeoutRearms = 1
	return &RunSpec{
		Config:  cfg,
		Policy:  engine.AccelFlow(),
		Sources: Mix(services.SocialNetwork(), 3.0, 300),
		Seed:    11,
		Faults: &fault.Spec{
			Rate:          20000,
			MeanWindow:    150 * sim.Microsecond,
			Horizon:       sim.Second,
			PEDegradeFrac: 0.75,
			PEFail:        true,
			// Lost remote responses are what actually produce TCP
			// timeouts (PE faults only degrade or fall back), and
			// timeouts are the retry path's trigger.
			RemoteLossRate: 0.05,
		},
		Control: &control.Spec{
			Autoscale: &control.AutoscaleSpec{
				Target:   control.TargetPE,
				UpUtil:   0.3,
				DownUtil: 0.05,
				SLOUs:    300,
				MaxAdd:   8,
			},
			Shed:  &control.ShedSpec{Queue: 48, Prob: 0.02},
			Retry: &control.RetrySpec{Budget: 16},
		},
	}
}

// TestControlledRunEngagesEveryPolicy: the surge, queue threshold
// and fault burst in controlledSpec really drive the autoscaler, the
// shedder and the retry budget, so tests built on it are not vacuous.
func TestControlledRunEngagesEveryPolicy(t *testing.T) {
	res, err := controlledSpec().Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Control == nil {
		t.Fatal("controlled run returned nil Control stats")
	}
	if res.Control.ScaleUps == 0 {
		t.Error("surge produced no scale-ups — controller not engaged")
	}
	if res.Shed == 0 || res.Retries == 0 {
		t.Errorf("shed=%d retries=%d — shedding/retry paths not exercised", res.Shed, res.Retries)
	}
}

// TestControlledRunPinnedOutput pins literal results of controlledSpec,
// the run that recycles the most request records: shed arrivals that
// never submit, timed-out requests re-submitted under the retry budget,
// and lost responses from the fault injector. The wanted values are the
// simulator's output for this spec; regenerate them only for an
// intended model change.
func TestControlledRunPinnedOutput(t *testing.T) {
	res, err := controlledSpec().Run()
	if err != nil {
		t.Fatal(err)
	}
	type pin struct {
		completed, timedOut, fellBack, retries, shed uint64
		p99                                          sim.Time
	}
	got := pin{res.Completed, res.TimedOut, res.FellBack, res.Retries, res.Shed, res.All.P99()}
	want := pin{completed: 130, timedOut: 10, fellBack: 127, retries: 8, shed: 178, p99: 10150474596}
	if got != want {
		t.Errorf("controlled run = %+v, want %+v", got, want)
	}
}

// TestRunControlValidation: runs reject an autoscale target other than
// pe or cores, and invalid specs.
func TestRunControlValidation(t *testing.T) {
	spec := controlledSpec()
	spec.Control.Autoscale.Target = "replicas"
	if _, err := spec.Run(); err == nil || !strings.Contains(err.Error(), "autoscale target") {
		t.Fatalf("Run() error = %v, want autoscale-target rejection", err)
	}
	spec = controlledSpec()
	spec.Control.Shed.Prob = 1.5
	if _, err := spec.Run(); err == nil || !strings.Contains(err.Error(), "probability") {
		t.Fatalf("Run() error = %v, want shed-probability rejection", err)
	}
}

// TestControlledObservedKeyPinned pins the result key of a controlled
// observed run that sets every control section. The key names cache
// entries, so a control field joining or leaving the spec's JSON must
// not move it for the specs callers build.
func TestControlledObservedKeyPinned(t *testing.T) {
	p := ObservedParams{Seed: 3, Requests: 600, Quick: true, FaultRate: 20000,
		Control: &control.Spec{
			Autoscale: &control.AutoscaleSpec{Target: control.TargetPE,
				UpUtil: 0.1, DownUtil: 0.01, SLOUs: 150, MaxAdd: 8},
			Shed:  &control.ShedSpec{Queue: 48, Prob: 0.02},
			Retry: &control.RetrySpec{Budget: 16},
		}}
	got, err := p.Key()
	if err != nil {
		t.Fatal(err)
	}
	const want = "9d6744781b1ed2c8d97305e0533b8a0eb8cb9bd943deb49b0698b5b1700b3329"
	if got != want {
		t.Errorf("key = %s, want %s", got, want)
	}
}
