package workload

import (
	"context"
	"runtime"
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/fault"
	"accelflow/internal/services"
	"accelflow/internal/sim"
)

func fleetSpec(replicas, requests int) *FleetSpec {
	return &FleetSpec{
		Config:   config.Default(),
		Policy:   engine.AccelFlow(),
		Sources:  Mix(services.SocialNetwork(), float64(replicas), requests),
		Seed:     11,
		Replicas: replicas,
	}
}

// withProcs runs f with GOMAXPROCS set to n, which bounds how many
// replicas run at once, and restores it after.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
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
	elapsed        sim.Time
	perReplica     [8]uint64
}

func fingerprint(t *testing.T, res *FleetResult) fleetFingerprint {
	t.Helper()
	fp := fleetFingerprint{
		mean: res.Merged.All.Mean(), p99: res.Merged.All.P99(), p50: res.Merged.All.P50(),
		completed: res.Merged.Completed, timedOut: res.Merged.TimedOut,
		fellBack: res.Merged.FellBack, accels: res.Merged.AccelCount,
		events:  res.Events,
		elapsed: res.Merged.Elapsed,
	}
	for i, rr := range res.Replicas {
		fp.perReplica[i] = rr.Completed
	}
	return fp
}

// TestFleetWorkerCountInvariance is the fleet-level determinism
// acceptance test: a run whose replicas run concurrently is
// byte-identical at GOMAXPROCS {1, 2, 4}.
func TestFleetWorkerCountInvariance(t *testing.T) {
	run := func(procs int) (fp fleetFingerprint) {
		withProcs(procs, func() {
			res, err := fleetSpec(4, 240).Run()
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", procs, err)
			}
			fp = fingerprint(t, res)
		})
		return fp
	}
	ref := run(1)
	if ref.completed != 240 {
		t.Fatalf("completed %d/240", ref.completed)
	}
	busy := 0
	for _, n := range ref.perReplica {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d replicas completed requests — test is vacuous", busy)
	}
	for _, procs := range []int{2, 4} {
		if got := run(procs); got != ref {
			t.Errorf("GOMAXPROCS %d diverged:\n got %+v\nwant %+v", procs, got, ref)
		}
	}
}

// TestFleetBalancing pins the ingress's round-robin cursor: every
// source shares it, so however the sources' arrivals interleave, the
// replicas receive — and so complete — exactly equal shares. Each
// replica also reports its own simulated end time, and the merged
// result's is the latest of them.
func TestFleetBalancing(t *testing.T) {
	res, err := fleetSpec(4, 200).Run()
	if err != nil {
		t.Fatal(err)
	}
	var latest sim.Time
	for i, rr := range res.Replicas {
		if rr.Completed != 50 {
			t.Errorf("replica %d completed %d, want 50", i, rr.Completed)
		}
		if rr.Elapsed <= 0 {
			t.Errorf("replica %d Elapsed = %v, want > 0", i, rr.Elapsed)
		}
		latest = max(latest, rr.Elapsed)
	}
	if res.Merged.Elapsed != latest {
		t.Errorf("merged Elapsed = %v, want the replicas' max %v", res.Merged.Elapsed, latest)
	}
}

// TestFleetIdleReplica: with more replicas than requests, the
// replicas past the last dealt arrival stay idle and the run still
// completes every request.
func TestFleetIdleReplica(t *testing.T) {
	s := fleetSpec(3, 0)
	s.Sources = SingleService(services.SocialNetwork()[0], Poisson{RPS: 3000}, 2)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{1, 1, 0} {
		if got := res.Replicas[i].Completed; got != want {
			t.Errorf("replica %d completed %d, want %d", i, got, want)
		}
	}
}

// faultedFleetSpec is a 3-replica checked fleet under a fault burst
// that exercises every injection mechanism.
func faultedFleetSpec() *FleetSpec {
	s := fleetSpec(3, 150)
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
// resizes) fire throughout every replica's run. The run must pass
// every per-replica invariant and stay GOMAXPROCS invariant.
func TestFleetCheckedWithFaults(t *testing.T) {
	run := func(procs int) (res *FleetResult, fp fleetFingerprint) {
		withProcs(procs, func() {
			var err error
			if res, err = faultedFleetSpec().Run(); err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", procs, err)
			}
			fp = fingerprint(t, res)
		})
		return res, fp
	}
	res, ref := run(1)
	windows := uint64(0)
	for _, rr := range res.Replicas {
		if rr.Engine.Faults != nil {
			windows += rr.Engine.Faults.Stats.Windows
		}
	}
	if windows == 0 {
		t.Fatal("no fault windows fired — SetServers untested")
	}
	if _, got := run(4); got != ref {
		t.Errorf("checked+faulted fleet diverged across GOMAXPROCS:\n got %+v\nwant %+v", got, ref)
	}
}

// TestFleetValidation covers the error paths.
func TestFleetValidation(t *testing.T) {
	if _, err := fleetSpec(0, 100).Run(); err == nil {
		t.Error("zero replicas accepted")
	}
	s := fleetSpec(2, 100)
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
	if res, err := fleetSpec(2, 100).RunCtx(ctx); err == nil || res != nil {
		t.Errorf("cancelled run returned res=%v err=%v", res, err)
	}
}
