package workload

import (
	"context"
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/fault"
	"accelflow/internal/services"
	"accelflow/internal/sim"
)

func fleetSpec(replicas, requests, workers int) *FleetSpec {
	return &FleetSpec{
		Config:   config.Default(),
		Policy:   engine.AccelFlow(),
		Sources:  Mix(services.SocialNetwork(), float64(replicas), requests),
		Seed:     11,
		Replicas: replicas,
		Workers:  workers,
	}
}

// fleetFingerprint flattens every result field a worker-count change
// could plausibly disturb into comparable scalars (Float64 bit
// patterns for latencies via integer picoseconds).
type fleetFingerprint struct {
	mean, p99, p50 sim.Time
	completed      uint64
	timedOut       uint64
	fellBack       uint64
	accels         uint64
	events         uint64
	epochs         uint64
	mail           uint64
	elapsed        sim.Time
	perReplica     [8]uint64
}

func fingerprint(t *testing.T, res *FleetResult) fleetFingerprint {
	t.Helper()
	fp := fleetFingerprint{
		mean: res.Merged.All.Mean(), p99: res.Merged.All.P99(), p50: res.Merged.All.P50(),
		completed: res.Merged.Completed, timedOut: res.Merged.TimedOut,
		fellBack: res.Merged.FellBack, accels: res.Merged.AccelCount,
		events: res.Events, epochs: res.Epochs, mail: res.Mail,
		elapsed: res.Merged.Elapsed,
	}
	for i, rr := range res.Replicas {
		fp.perReplica[i] = rr.Completed
	}
	return fp
}

// TestFleetWorkerCountInvariance is the fleet-level determinism
// acceptance test: a genuinely multi-domain run (mailbox traffic,
// concurrent replica servers) is byte-identical at worker counts
// {1, 2, 4, 8}.
func TestFleetWorkerCountInvariance(t *testing.T) {
	run := func(workers int) fleetFingerprint {
		res, err := fleetSpec(4, 240, workers).Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return fingerprint(t, res)
	}
	ref := run(1)
	if ref.completed != 240 {
		t.Fatalf("completed %d/240", ref.completed)
	}
	if ref.mail == 0 || ref.epochs == 0 {
		t.Fatalf("no cross-domain traffic (mail=%d epochs=%d) — test is vacuous", ref.mail, ref.epochs)
	}
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); got != ref {
			t.Errorf("workers=%d diverged:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}

// TestFleetBalancing pins the ingress's round-robin cursor: every
// source shares it, so however the sources' arrivals interleave, the
// replicas receive — and so complete — exactly equal shares.
func TestFleetBalancing(t *testing.T) {
	res, err := fleetSpec(4, 200, 4).Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range res.Replicas {
		if rr.Completed != 50 {
			t.Errorf("replica %d completed %d, want 50", i, rr.Completed)
		}
	}
}

// faultedFleetSpec is a 3-replica checked fleet under a fault burst
// that exercises every injection mechanism.
func faultedFleetSpec(workers int) *FleetSpec {
	s := fleetSpec(3, 150, workers)
	s.Check = true
	s.Faults = &fault.Spec{
		Rate:           3000,
		MeanWindow:     200 * sim.Microsecond,
		Horizon:        sim.Second,
		PEDegradeFrac:  0.5,
		PEFail:         true,
		ADMARemove:     2,
		ManagerStall:   true,
		ATMStall:       500 * sim.Nanosecond,
		NoCInflate:     4,
		RemoteLossRate: 1e-3,
	}
	return s
}

// TestFleetCheckedWithFaults runs the invariant checkers over a
// fault-injected fleet: PE-degrade windows (Resource.SetServers
// resizes) fire throughout the run, and with ~200us mean windows vs
// ~9us epochs every window crosses many epoch barriers. The run must
// pass every per-replica invariant and stay worker-count invariant.
func TestFleetCheckedWithFaults(t *testing.T) {
	run := func(workers int) (*FleetResult, fleetFingerprint) {
		res, err := faultedFleetSpec(workers).Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, fingerprint(t, res)
	}
	res, ref := run(1)
	windows := uint64(0)
	for _, rr := range res.Replicas {
		if rr.Engine.Faults != nil {
			windows += rr.Engine.Faults.Stats.Windows
		}
	}
	if windows == 0 {
		t.Fatal("no fault windows fired — SetServers/epoch interaction untested")
	}
	if _, got := run(4); got != ref {
		t.Errorf("checked+faulted fleet diverged across worker counts:\n got %+v\nwant %+v", got, ref)
	}
}

// TestFleetValidation covers the error paths.
func TestFleetValidation(t *testing.T) {
	if _, err := fleetSpec(0, 100, 1).Run(); err == nil {
		t.Error("zero replicas accepted")
	}
	s := fleetSpec(2, 100, 1)
	s.Sources[0].Requests = 0
	if _, err := s.Run(); err == nil {
		t.Error("zero-budget source accepted")
	}
}

// TestFleetCancellation: a cancelled fleet run returns the context
// error and no result.
func TestFleetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := fleetSpec(2, 100, 2).RunCtx(ctx); err == nil || res != nil {
		t.Errorf("cancelled run returned res=%v err=%v", res, err)
	}
}
