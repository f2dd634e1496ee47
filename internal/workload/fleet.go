package workload

import (
	"context"
	"fmt"

	"accelflow/internal/check"
	"accelflow/internal/config"
	"accelflow/internal/control"
	"accelflow/internal/engine"
	"accelflow/internal/fault"
	"accelflow/internal/sim"
	"accelflow/internal/trace"
)

// FleetSpec describes a multi-server run: an ingress load balancer in
// front of Replicas identical AccelFlow servers, each server its own
// resource domain on a sharded kernel (sim.Sharded). This is where
// intra-run parallelism is real: a single server is one indivisible
// domain (every component shares engine state), but a fleet's servers
// only interact through the balancer, and the balancer-to-server
// forwarding latency — microseconds of modeled network — is orders of
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
	// Balance selects the ingress policy: "rr" (default) round-robins;
	// "least" routes to the replica with the fewest outstanding
	// requests as observed at the ingress — completions report back
	// over the same forwarding latency, so the view is delayed exactly
	// like a real out-of-band health channel.
	Balance string
	// Forward is the one-way ingress->replica forwarding latency and
	// the sharded kernel's lookahead; 0 defaults to Config.RemoteRTT/2
	// (the one-way peer network latency).
	Forward sim.Time
	// Programs/Remote override the service catalog (nil = defaults).
	Programs []*trace.Program
	Remote   map[string]engine.RemoteKind
	// Faults, when non-nil, attaches an independently seeded injector
	// to every replica.
	Faults *fault.Spec
	// Control, when non-nil, attaches the dynamic-control subsystem at
	// the ingress, seeded with DeriveSeed(Seed, "control"): load
	// shedding on arrival and an autoscaler over the active replica
	// set (target must be "replicas"; the built replica count is the
	// ceiling — deactivated replicas stop receiving new work and
	// drain). Retry budgets are not supported in fleets: the ingress
	// would have to replay jobs across domains. All controller state
	// is ingress-domain-confined, so controlled fleets stay
	// byte-identical at every Workers value.
	Control *control.Spec
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
	// Routed counts requests the balancer sent to each replica.
	Routed []uint64
	// Shed counts arrivals the controller rejected at the ingress
	// (never routed, never submitted); Control carries the
	// controller's activity counters when FleetSpec.Control was set.
	Shed    uint64
	Control *control.Stats
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
	switch s.Balance {
	case "", "rr", "least":
	default:
		return nil, fmt.Errorf("workload: unknown balance policy %q (want rr or least)", s.Balance)
	}
	if err := checkInputs(s.Sources, s.Control); err != nil {
		return nil, err
	}
	if s.Control != nil {
		if s.Control.Retry != nil {
			return nil, fmt.Errorf("workload: fleet runs do not support retry budgets (the ingress cannot replay jobs across domains)")
		}
		if a := s.Control.Autoscale; a != nil && a.Target != control.TargetReplicas {
			return nil, fmt.Errorf("workload: fleet autoscale target must be %q, got %q", control.TargetReplicas, a.Target)
		}
	}
	forward := s.Forward
	if forward <= 0 {
		forward = s.Config.RemoteRTT / 2
	}
	if forward <= 0 {
		return nil, fmt.Errorf("workload: fleet forwarding latency must be positive, got %v", forward)
	}

	nd := 1 + s.Replicas // domain 0 = ingress, 1..R = servers
	sk := sim.NewSharded(nd, forward, s.Workers)

	programs, remote := catalog(s.Programs, s.Remote)
	out := &FleetResult{
		Replicas: make([]*RunResult, s.Replicas),
		Routed:   make([]uint64, s.Replicas),
	}
	for i := range out.Replicas {
		p := engine.Params{Seed: sim.DeriveSeed(s.Seed, fmt.Sprintf("replica/%d", i))}
		if s.Faults != nil {
			p.Faults = fault.New(*s.Faults,
				sim.DeriveSeed(s.Seed, fmt.Sprintf("faults/replica/%d", i)))
		}
		if s.Check {
			p.Check = check.New()
		}
		rr, err := newServer(sk.Domain(1+i), s.Config, s.Policy, p, programs, remote)
		if err != nil {
			return nil, err
		}
		out.Replicas[i] = rr
	}

	lb := newBalancer(s.Balance, s.Replicas)
	var ctl *control.Controller
	if s.Control != nil {
		ctl = control.New(*s.Control, sim.DeriveSeed(s.Seed, "control"))
		if s.Control.Autoscale != nil {
			ctl.AttachActive(s.Replicas, lb.setActive)
		}
	}
	// Sized, and so created, before the run: arrival events on the
	// ingress domain read the replicas' maps, so no domain may write
	// them later.
	for _, rr := range out.Replicas {
		rr.size(s.Sources, s.Replicas)
	}
	rng := sim.NewRNG(s.Seed ^ 0x5eed)
	total := 0
	for si, src := range s.Sources {
		total += src.Requests
		scheduleFleetSource(sk, src, rng.Fork(int64(si)+1), lb, ctl, out, forward)
	}
	if ctl != nil && ctl.NeedsTick() {
		// The decision loop is a manually rescheduled tick on the
		// ingress domain, not Kernel.Every: an Every tick dies as soon
		// as the ingress goes idle while replicas still work (its
		// reschedule rule only sees its own domain's queue). The manual
		// tick keeps itself alive while arrivals remain or requests are
		// in flight — each source keeps its next arrival queued on the
		// ingress until its last has fired, and outstanding only reaches
		// zero after every completion notice has been delivered back to
		// the ingress — so it spans the run and stops at global
		// quiescence. Everything it reads and writes is
		// ingress-domain-confined, so the schedule is byte-identical at
		// every Workers value. RunSpec cannot use this rule: on one
		// kernel the controller tick and the obs sampler would each see
		// the other pending and never stop (DESIGN.md §12).
		ing := sk.Domain(0)
		iv := ctl.Interval()
		var tick func()
		tick = func() {
			ctl.Tick(ing.Now())
			if ing.Pending() > 0 || ctl.Outstanding() > 0 {
				ing.After(iv, tick)
			}
		}
		ing.After(iv, tick)
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
	if ctl != nil {
		out.Control = &ctl.Stats
	}

	// Every arrival either sheds at the ingress or completes on a
	// replica — a shed request must never reappear downstream.
	if uint64(total) != merged.Completed+out.Shed {
		return out, fmt.Errorf("workload: fleet lost requests: %d submitted, %d completed, %d shed",
			total, merged.Completed, out.Shed)
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
// arrival picks a replica, then forwards the job across domains with
// the modeled one-way latency; the completion callback runs on the
// replica's domain and owns that replica's recorders (domain
// confinement keeps the merge deterministic and the run race-free).
// The source's job and, per replica, its forward and completion
// callbacks are built once.
func scheduleFleetSource(sk *sim.Sharded, src Source, rng *sim.RNG, lb *balancer, ctl *control.Controller, out *FleetResult, forward sim.Time) {
	ing := sk.Domain(0)
	// Completion notices flow back whenever anything at the ingress
	// consumes them: the least-outstanding balancer's load view, or the
	// controller's outstanding count and latency window.
	notify := lb.tracksLoad() || ctl != nil
	job := src.Service.Job(src.Tenant)
	submit := make([]func(), len(out.Replicas))
	for ri, rr := range out.Replicas {
		rec := rr.PerService[src.Service.Name]
		repK := sk.Domain(1 + ri)
		done := func(r engine.Result) {
			rr.count(r)
			rr.record(rec, r)
			if notify {
				// Completion notice travels back to the ingress
				// over the same forwarding latency.
				lat := r.Latency
				repK.Send(0, repK.Now()+forward, func() {
					if lb.tracksLoad() {
						lb.done(ri)
					}
					if ctl != nil {
						ctl.NoteDone(ing.Now(), lat)
					}
				})
			}
		}
		submit[ri] = func() { rr.Engine.Submit(job, done) }
	}
	bookArrivals(ing, drawArrivals(src, rng), func() {
		if ctl != nil && ctl.Shed() {
			out.Shed++
			return
		}
		ri := lb.pick()
		out.Routed[ri]++
		if ctl != nil {
			ctl.NoteSubmit()
		}
		ing.Send(1+ri, ing.Now()+forward, submit[ri])
	})
}

// balancer is the ingress routing policy. All state lives on the
// ingress domain: pick runs in arrival events, done in mailbox
// deliveries — never concurrently.
type balancer struct {
	least    bool
	replicas int
	active   int // routable prefix [0, active); the autoscaler moves it

	next        int   // rr cursor
	outstanding []int // least: in-flight per replica, as seen at ingress
}

func newBalancer(mode string, replicas int) *balancer {
	b := &balancer{least: mode == "least", replicas: replicas, active: replicas}
	if b.least {
		b.outstanding = make([]int, replicas)
	}
	return b
}

// setActive resizes the routable replica prefix (the autoscaler's
// actuator). Shrinking never cancels in-flight work: replicas outside
// the prefix just stop receiving new requests and drain.
func (b *balancer) setActive(n int) {
	if n < 1 {
		n = 1
	}
	if n > b.replicas {
		n = b.replicas
	}
	b.active = n
	if b.next >= n {
		b.next = 0
	}
}

// tracksLoad reports whether completions must be reported back to the
// ingress (only the least-outstanding policy keeps load state).
func (b *balancer) tracksLoad() bool { return b.least }

func (b *balancer) pick() int {
	if !b.least {
		ri := b.next
		b.next = (b.next + 1) % b.active
		return ri
	}
	// Minimum outstanding over the active prefix, ties to the lowest
	// index: deterministic.
	best := 0
	for i := 1; i < b.active; i++ {
		if b.outstanding[i] < b.outstanding[best] {
			best = i
		}
	}
	b.outstanding[best]++
	return best
}

func (b *balancer) done(ri int) { b.outstanding[ri]-- }
