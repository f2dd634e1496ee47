package workload

import (
	"context"
	"fmt"

	"accelflow/internal/check"
	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/fault"
	"accelflow/internal/sim"
)

// FleetSpec describes a multi-server run: an ingress that round-robins
// arrivals over Replicas identical AccelFlow servers, each server its
// own resource domain on a sharded kernel (sim.Sharded). This is where
// intra-run parallelism is real: a single server is one indivisible
// domain (every component shares engine state), but a fleet's servers
// only interact through the ingress, and the ingress-to-server
// forwarding latency — Config.RemoteRTT/2, the one-way peer network
// latency, which is also the kernel's lookahead — is orders of
// magnitude above the epoch floor, so domains run concurrently with
// barriers that stay off the critical path.
//
// Determinism: results are byte-identical at every Workers value
// because the sharded coordinator's execution is worker-count
// invariant (see sim.Sharded) and the merge below walks replicas in
// index order.
type FleetSpec struct {
	Config  *config.Config
	Policy  engine.Policy
	Sources []Source
	// Seed seeds the arrival streams and derives each replica engine's
	// seed (DeriveSeed(Seed, "replica/<i>")) and each replica fault
	// injector's seed (DeriveSeed(Seed, "faults/replica/<i>")).
	Seed     int64
	Replicas int
	// Workers is the execution worker count for the sharded kernel:
	// <= 0 means one worker per domain (ingress + replicas), 1 forces
	// the serial reference execution. Never changes results.
	Workers int
	// Faults, when non-nil, attaches an independently seeded injector
	// to every replica.
	Faults *fault.Spec
	// Check attaches a runtime invariant checker to every replica and
	// runs the end-of-run suite per replica after the fleet drains.
	Check bool
}

// FleetResult aggregates a finished fleet run.
type FleetResult struct {
	// Merged combines all replicas in replica-index order: recorders
	// merged, counters summed. Merged.Engine is nil — per-engine state
	// lives in Replicas.
	Merged *RunResult
	// Replicas holds each server's own result (Engine populated).
	Replicas []*RunResult
	// Events is the total executed event count across all domains;
	// Epochs and Mail are the coordinator's barrier statistics.
	Events uint64
	Epochs uint64
	Mail   uint64
}

// Run drives the fleet to completion.
func (s *FleetSpec) Run() (*FleetResult, error) {
	return s.RunCtx(context.Background())
}

// RunCtx is Run with cooperative cancellation, mirroring
// RunSpec.RunCtx: a cancelled run returns no result.
func (s *FleetSpec) RunCtx(ctx context.Context) (*FleetResult, error) {
	if s.Replicas < 1 {
		return nil, fmt.Errorf("workload: fleet needs at least one replica, got %d", s.Replicas)
	}
	if err := checkInputs(s.Sources); err != nil {
		return nil, err
	}
	forward := s.Config.RemoteRTT / 2
	if forward <= 0 {
		return nil, fmt.Errorf("workload: fleet forwarding latency must be positive, got %v", forward)
	}

	nd := 1 + s.Replicas // domain 0 = ingress, 1..R = servers
	sk := sim.NewSharded(nd, forward, s.Workers)

	out := &FleetResult{Replicas: make([]*RunResult, s.Replicas)}
	for i := range out.Replicas {
		p := engine.Params{Seed: sim.DeriveSeed(s.Seed, fmt.Sprintf("replica/%d", i))}
		if s.Faults != nil {
			p.Faults = fault.New(*s.Faults,
				sim.DeriveSeed(s.Seed, fmt.Sprintf("faults/replica/%d", i)))
		}
		if s.Check {
			p.Check = check.New()
		}
		rr, err := newServer(sk.Domain(1+i), s.Config, s.Policy, p, defaultPrograms, defaultRemote)
		if err != nil {
			return nil, err
		}
		out.Replicas[i] = rr
	}

	// Sized, and so created, before the run: arrival events on the
	// ingress domain read the replicas' maps, so no domain may write
	// them later.
	for _, rr := range out.Replicas {
		rr.size(s.Sources, s.Replicas)
	}
	rng := sim.NewRNG(s.Seed ^ 0x5eed)
	total := 0
	next := 0 // round-robin cursor shared by every source
	for si, src := range s.Sources {
		total += src.Requests
		scheduleFleetSource(sk, src, rng.Fork(int64(si)+1), &next, out, forward)
	}

	if err := sk.RunCtx(ctx); err != nil {
		return nil, fmt.Errorf("workload: fleet run interrupted: %w", err)
	}

	// Merge in replica-index order — the only order-sensitive step of
	// result assembly, fixed independent of worker scheduling.
	merged := newResult(s.Policy.Name)
	merged.size(s.Sources, 1)
	merged.Elapsed = sk.Now()
	for _, rr := range out.Replicas {
		merged.merge(rr)
	}
	out.Merged = merged
	out.Events = sk.Processed()
	out.Epochs = sk.Stats.Epochs
	out.Mail = sk.Stats.Delivered

	if uint64(total) != merged.Completed {
		return out, fmt.Errorf("workload: fleet lost requests: %d submitted, %d completed",
			total, merged.Completed)
	}
	if s.Check {
		for i, rr := range out.Replicas {
			if err := rr.verify(); err != nil {
				return out, fmt.Errorf("workload: replica %d invariant check failed: %w", i, err)
			}
		}
	}
	return out, nil
}

// scheduleFleetSource books one source's arrivals on the ingress
// domain, keeping only the next one queued (see bookArrivals). Each
// arrival takes the replica under the round-robin cursor next, which
// only ingress events touch, then forwards the job across domains with
// the modeled one-way latency; the completion callback runs on the
// replica's domain and owns that replica's recorders (domain
// confinement keeps the merge deterministic and the run race-free).
// The source's job and, per replica, its forward callback are built
// once.
func scheduleFleetSource(sk *sim.Sharded, src Source, rng *sim.RNG, next *int, out *FleetResult, forward sim.Time) {
	ing := sk.Domain(0)
	job := src.Service.Job(src.Tenant)
	submit := make([]func(), len(out.Replicas))
	for ri, rr := range out.Replicas {
		rec := rr.PerService[src.Service.Name]
		done := func(r engine.Result) {
			rr.count(r)
			rr.record(rec, r)
		}
		submit[ri] = func() { rr.Engine.Submit(job, done) }
	}
	bookArrivals(ing, drawArrivals(src, rng), func() {
		ri := *next
		*next = (ri + 1) % len(submit)
		ing.Send(1+ri, ing.Now()+forward, submit[ri])
	})
}
