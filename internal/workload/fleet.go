package workload

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"accelflow/internal/check"
	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/fault"
	"accelflow/internal/sim"
)

// FleetSpec describes a multi-server run: an ingress that round-robins
// arrivals over Replicas identical AccelFlow servers, each forwarded
// with the one-way peer network latency Config.RemoteRTT/2.
//
// The ingress is feed-forward: every arrival time is drawn up front,
// its only state is the round-robin cursor, and no replica sends
// anything back. So the whole schedule is dealt before any replica
// runs, and each replica is an independent serial simulation on its
// own kernel. Replicas run concurrently (at most GOMAXPROCS at once)
// but share no state, and the merge walks them in index order, so
// results are byte-identical at every GOMAXPROCS.
type FleetSpec struct {
	Config  *config.Config
	Policy  engine.Policy
	Sources []Source
	// Seed seeds the arrival streams and derives each replica engine's
	// seed (DeriveSeed(Seed, "replica/<i>")) and each replica fault
	// injector's seed (DeriveSeed(Seed, "faults/replica/<i>")).
	Seed     int64
	Replicas int
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
	// merged, counters summed, Elapsed the latest replica's. Merged.Engine
	// is nil — per-engine state lives in Replicas.
	Merged *RunResult
	// Replicas holds each server's own result (Engine populated).
	Replicas []*RunResult
	// Events is the total executed event count across all replicas'
	// kernels.
	Events uint64
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
		rr, err := newServer(sim.NewKernel(), s.Config, s.Policy, p, defaultPrograms, defaultRemote)
		if err != nil {
			return nil, err
		}
		rr.size(s.Sources, s.Replicas)
		out.Replicas[i] = rr
	}
	times, srcs := s.deal(forward)
	for i, rr := range out.Replicas {
		bookFleetArrivals(s.Sources, times[i], srcs[i], rr)
	}

	// Replicas share nothing, so any number may run at once; each
	// writes only its own slot of errs.
	errs := make([]error, s.Replicas)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < s.Replicas; i = int(next.Add(1) - 1) {
			rr := out.Replicas[i]
			errs[i] = rr.Engine.K.RunCtx(ctx)
			rr.Elapsed = rr.Engine.K.Now()
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), s.Replicas); w++ {
		wg.Add(1)
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("workload: fleet run interrupted: %w", err)
		}
	}

	// Merge in replica-index order — the only order-sensitive step of
	// result assembly, fixed independent of worker scheduling.
	merged := newResult(s.Policy.Name)
	merged.size(s.Sources, 1)
	for _, rr := range out.Replicas {
		merged.merge(rr)
		merged.Elapsed = max(merged.Elapsed, rr.Elapsed)
		out.Events += rr.Engine.K.Processed()
	}
	out.Merged = merged

	total := 0
	for _, src := range s.Sources {
		total += src.Requests
	}
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

// arrival is one request reaching the ingress: when, and from which
// source.
type arrival struct {
	at  sim.Time
	src int
}

// deal computes the ingress schedule: every source's arrivals, drawn
// from its own fork of the seed's stream, in (time, source index,
// arrival index) order — the order one kernel would run them in, since
// each source reserves its sequence numbers in source order (see
// bookArrivals) — dealt round-robin over the replicas and delayed by
// the forwarding latency. times[i] and srcs[i] hold replica i's
// arrival times and source indices in dealt order.
func (s *FleetSpec) deal(forward sim.Time) (times [][]sim.Time, srcs [][]int) {
	rng := sim.NewRNG(s.Seed ^ 0x5eed)
	total := 0
	for _, src := range s.Sources {
		total += src.Requests
	}
	all := make([]arrival, 0, total)
	for si, src := range s.Sources {
		for _, at := range drawArrivals(src, rng.Fork(int64(si)+1)) {
			all = append(all, arrival{at: at, src: si})
		}
	}
	slices.SortStableFunc(all, func(a, b arrival) int { return cmp.Compare(a.at, b.at) })
	times, srcs = make([][]sim.Time, s.Replicas), make([][]int, s.Replicas)
	share := (total + s.Replicas - 1) / s.Replicas
	for i := range times {
		times[i], srcs[i] = make([]sim.Time, 0, share), make([]int, 0, share)
	}
	for j, a := range all {
		i := j % s.Replicas
		times[i] = append(times[i], a.at+forward)
		srcs[i] = append(srcs[i], a.src)
	}
	return times, srcs
}

// bookFleetArrivals books one replica's dealt arrivals on its kernel,
// keeping only the next one queued (see bookArrivals); the arrival at
// times[j] submits source srcs[j]'s job to the replica's engine. Every
// source's job and completion callback is built once. A replica dealt
// nothing (more replicas than requests) stays idle.
func bookFleetArrivals(sources []Source, times []sim.Time, srcs []int, rr *RunResult) {
	if len(times) == 0 {
		return
	}
	submit := make([]func(), len(sources))
	for si, src := range sources {
		job := src.Service.Job()
		rec := rr.PerService[src.Service.Name]
		done := func(r engine.Result) {
			rr.count(r)
			rr.record(rec, r)
		}
		submit[si] = func() { rr.Engine.Submit(job, done) }
	}
	next := 0
	bookArrivals(rr.Engine.K, times, func() {
		submit[srcs[next]]()
		next++
	})
}
