package workload

import (
	"math"
	"testing"

	"accelflow/internal/check"
	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/fault"
	"accelflow/internal/services"
	"accelflow/internal/sim"
)

// snapshot collects every result field that must be bit-identical for
// two runs to count as "the same simulation".
type snapshot struct {
	p99, mean, elapsed          sim.Time
	completed, timed, fell, acc uint64
	bd                          engine.Breakdown
}

func snap(res *RunResult) snapshot {
	return snapshot{
		p99:       res.All.P99(),
		mean:      res.All.Mean(),
		elapsed:   res.Elapsed,
		completed: res.Completed,
		timed:     res.TimedOut,
		fell:      res.FellBack,
		acc:       res.AccelCount,
		bd:        res.Breakdown,
	}
}

// TestZeroFaultRateBitIdentical pins the injector's purity contract:
// attaching the fault layer with Rate 0 (and RemoteLossRate 0) must
// leave every result bit-identical to running without the layer — no
// RNG draws, no kernel events, no counter drift — for each policy.
func TestZeroFaultRateBitIdentical(t *testing.T) {
	svc := services.SocialNetwork()[4] // Login
	for _, pol := range []engine.Policy{
		engine.CPUCentric(), engine.RELIEF(), engine.Cohort(engine.DefaultCohortPairs()), engine.AccelFlow(),
	} {
		run := func(fs *fault.Spec) snapshot {
			spec := &RunSpec{
				Config:  config.Default(),
				Policy:  pol,
				Sources: SingleService(svc, Poisson{RPS: 3000}, 120),
				Seed:    11,
				Faults:  fs,
			}
			res, err := spec.Run()
			if err != nil {
				t.Fatal(err)
			}
			return snap(res)
		}
		plain := run(nil)
		zero := run(&fault.Spec{Rate: 0})
		if plain != zero {
			t.Errorf("%s: rate-0 fault layer changed results:\n  without: %+v\n  with:    %+v",
				pol.Name, plain, zero)
		}
	}
}

func snapRun(t *testing.T, spec *RunSpec) *RunResult {
	t.Helper()
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFaultRunCompletesAndReverts drives a realistic faulty run end to
// end through the workload layer: every request completes, windows
// fired, and the engine reports zero still-open windows afterwards.
func TestFaultRunCompletesAndReverts(t *testing.T) {
	cfg := config.Default()
	cfg.EnqueueBackoff = 200 * sim.Nanosecond
	cfg.TimeoutRearms = 1
	svc := services.SocialNetwork()[4]
	spec := &RunSpec{
		Config:  cfg,
		Policy:  engine.AccelFlow(),
		Sources: SingleService(svc, Poisson{RPS: 5000}, 200),
		Seed:    3,
		Faults: &fault.Spec{
			Rate:           100000,
			MeanWindow:     50 * sim.Microsecond,
			Horizon:        200 * sim.Millisecond,
			PEDegradeFrac:  0.5,
			PEFail:         true,
			ManagerStall:   true,
			RemoteLossRate: 0.001,
		},
	}
	res := snapRun(t, spec)
	if res.Completed != 200 {
		t.Fatalf("completed %d/200 under faults", res.Completed)
	}
	inj := res.Engine.Faults
	if inj == nil || inj.Stats.Windows == 0 {
		t.Fatal("no fault windows fired")
	}
	if inj.Active() != 0 {
		t.Errorf("%d fault windows still open after the run", inj.Active())
	}
}

// TestInvalidFaultSpecRejectedBeforeRun: both specs reject an invalid
// fault spec while building their servers, before the injector
// attaches, so a spec past the window cap cannot pre-schedule its
// windows and a non-finite one cannot reach the injector. The attached
// checker sees no kernel event.
func TestInvalidFaultSpecRejectedBeforeRun(t *testing.T) {
	svc := services.SocialNetwork()[4] // Login
	cases := []struct {
		name string
		spec fault.Spec
	}{
		{"over window cap", fault.Spec{Rate: 1e9, Horizon: sim.Second}},
		{"NaN rate", fault.Spec{Rate: math.NaN()}},
		{"infinite NoC inflation", fault.Spec{Rate: 10, NoCInflate: math.Inf(1)}},
		{"mean gap overflows the clock", fault.Spec{Rate: 1e-7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chk := check.New()
			run := &RunSpec{
				Config:  config.Default(),
				Policy:  engine.AccelFlow(),
				Sources: SingleService(svc, Poisson{RPS: 3000}, 20),
				Seed:    1,
				Faults:  &tc.spec,
				Check:   chk,
			}
			if res, err := run.Run(); err == nil || res != nil {
				t.Fatalf("RunSpec accepted the spec: res=%v err=%v", res, err)
			}
			if n := chk.Events(); n != 0 {
				t.Errorf("RunSpec ran %d events before rejecting the spec", n)
			}
			fleet := &FleetSpec{
				Config:   config.Default(),
				Policy:   engine.AccelFlow(),
				Sources:  SingleService(svc, Poisson{RPS: 3000}, 20),
				Seed:     1,
				Replicas: 2,
				Faults:   &tc.spec,
			}
			if res, err := fleet.Run(); err == nil || res != nil {
				t.Fatalf("FleetSpec accepted the spec: res=%v err=%v", res, err)
			}
		})
	}
}
