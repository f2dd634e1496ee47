package workload

import (
	"context"
	"fmt"
	"sort"

	"accelflow/internal/check"
	"accelflow/internal/config"
	"accelflow/internal/control"
	"accelflow/internal/engine"
	"accelflow/internal/fault"
	"accelflow/internal/metrics"
	"accelflow/internal/obs"
	"accelflow/internal/services"
	"accelflow/internal/sim"
	"accelflow/internal/trace"
)

// Source pairs a service with its arrival process and request budget.
type Source struct {
	Service  *services.Service
	Arrivals Arrivals
	Requests int
}

// RunResult aggregates a finished simulation.
type RunResult struct {
	PerService map[string]*metrics.Recorder
	All        *metrics.Recorder
	// Net records latency excluding remote-peer waits (the on-server
	// portion), used by SLO comparisons that should not be dominated
	// by the modeled far side of nested RPCs.
	Net *metrics.Recorder

	// Breakdowns sums the per-request component attribution.
	Breakdown engine.Breakdown
	// AccelCount sums accelerator invocations (Table IV validation).
	AccelCount uint64
	Completed  uint64
	TimedOut   uint64
	FellBack   uint64
	// Shed counts arrivals the controller rejected before submission;
	// Retries counts controller-granted re-submissions of timed-out
	// requests. Latency recorders see neither: a shed request records
	// nothing, and only a request's final attempt records its latency,
	// so recorder counts equal (arrivals - Shed). Completed counts
	// every engine completion, retries included, so conservation
	// against the engine's admission counter still balances exactly.
	Shed    uint64
	Retries uint64
	// Control carries the controller's activity counters when
	// RunSpec.Control was set (nil otherwise).
	Control *control.Stats

	Elapsed sim.Time
	Engine  *engine.Engine
}

// RunSpec describes one simulation run: the platform configuration,
// the orchestration policy, the workload sources, and the optional
// knobs that used to pile up as positional arguments of Run. Zero
// values for Programs/Remote default to the SocialNetwork catalog.
type RunSpec struct {
	Config  *config.Config
	Policy  engine.Policy
	Sources []Source
	Seed    int64
	// Programs/Remote override the service catalog (nil = defaults).
	Programs []*trace.Program
	Remote   map[string]engine.RemoteKind
	// Obs, when non-nil, records per-request spans and time-sampled
	// utilization of PEs, manager, NoC links, DRAM, and the A-DMA
	// pool. Each Sink records exactly one run.
	Obs *obs.Sink
	// Faults, when non-nil, attaches a deterministic fault injector
	// seeded with DeriveSeed(Seed, "faults"); a spec with Rate 0 (and
	// RemoteLossRate 0) leaves results bit-identical to Faults == nil.
	Faults *fault.Spec
	// Control, when non-nil, attaches the dynamic-control subsystem
	// seeded with DeriveSeed(Seed, "control"): an autoscaler over the
	// PE pools or the core pool, request-layer load shedding, and the
	// run's retry budget. A controller whose policies can never
	// fire draws from no RNG stream and leaves results bit-identical to
	// Control == nil except that its decision tick, like the obs
	// sampler, may extend Elapsed by up to one interval past the last
	// completion.
	Control *control.Spec
	// Check, when non-nil, attaches a runtime invariant checker: the
	// kernel verifies event-time monotonicity as it runs, the engine
	// feeds request-conservation counters, and after the run drains the
	// full per-resource suite (utilization bounds, queue drain,
	// Little's law) executes. Any violation makes RunCtx return a
	// *check.Failure error alongside the result. Checker hooks only
	// read state, so an attached checker never changes Values. Each
	// Checker covers exactly one run.
	Check *check.Checker
	// SampleSizes fills every accelerator's Fig. 5 size samples
	// (accel.Stats.InSizes and OutSizes), which stay nil otherwise.
	// Only the fig5 experiment sets it; it changes no event, draw or
	// other result.
	SampleSizes bool
}

// Run drives one engine with the spec's sources until every request
// completes and returns the collected metrics.
func (s *RunSpec) Run() (*RunResult, error) {
	return s.RunCtx(context.Background())
}

// RunCtx is Run with cooperative cancellation: when ctx is cancelled
// the kernel stops at the next event-batch boundary and RunCtx returns
// an error wrapping ctx.Err() (so errors.Is(err, context.Canceled)
// holds). A cancelled run returns no RunResult — the simulation state
// is consistent but incomplete, and partial metrics would be
// misleading. With a background (or nil) context the behavior and
// results are bit-identical to Run.
func (s *RunSpec) RunCtx(ctx context.Context) (*RunResult, error) {
	if err := s.Control.Validate(); err != nil {
		return nil, err
	}
	if err := checkInputs(s.Sources); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	p := engine.Params{Seed: s.Seed, Obs: s.Obs, Check: s.Check, SampleSizes: s.SampleSizes}
	if s.Faults != nil {
		p.Faults = fault.New(*s.Faults, sim.DeriveSeed(s.Seed, "faults"))
	}
	programs, remote := s.Programs, s.Remote
	if programs == nil {
		programs = defaultPrograms
	}
	if remote == nil {
		remote = defaultRemote
	}
	res, err := newServer(k, s.Config, s.Policy, p, programs, remote)
	if err != nil {
		return nil, err
	}
	var ctl *control.Controller
	if s.Control != nil {
		ctl = control.New(*s.Control, sim.DeriveSeed(s.Seed, "control"))
		ctl.BindObs(s.Obs)
		if a := s.Control.Autoscale; a != nil {
			ctl.AttachPools(res.Engine.ControlPools(a.Target))
		}
	}

	res.size(s.Sources, 1)
	rng := sim.NewRNG(s.Seed ^ 0x5eed)
	for si, src := range s.Sources {
		newStream(res, ctl, src).schedule(rng.Fork(int64(si) + 1))
	}
	if ctl != nil && ctl.NeedsTick() {
		// The decision tick arms like the obs sampler (below): after
		// every arrival's sequence number is reserved, through
		// Kernel.Every's self-terminating reschedule, so the controller
		// stops when the run drains. Armed first so its event-sequence
		// position is fixed whether or not observability is on.
		k.Every(control.TickInterval, func() { ctl.Tick(k.Now()) })
	}
	if s.Obs != nil {
		// Armed after every arrival's sequence number is reserved,
		// which fixes its event-sequence position exactly where the run
		// needs it (see sampler).
		k.Every(s.Obs.SampleInterval(), sampler(k, res.Engine, s.Obs))
	}
	if err := k.RunCtx(ctx); err != nil {
		return nil, fmt.Errorf("workload: run interrupted: %w", err)
	}
	res.Elapsed = k.Now()
	if ctl != nil {
		res.Control = &ctl.Stats
	}
	if s.Check.Enabled() {
		if err := res.verify(); err != nil {
			return res, fmt.Errorf("workload: invariant check failed: %w", err)
		}
	}
	return res, nil
}

// checkInputs runs the source validation RunSpec and FleetSpec share
// before anything is built. The fault spec is checked by engine.New, in
// newServer, before its injector attaches.
func checkInputs(sources []Source) error {
	if len(sources) == 0 {
		return fmt.Errorf("workload: no requests to run")
	}
	for si, src := range sources {
		if src.Requests <= 0 {
			return fmt.Errorf("workload: source %d has no request budget", si)
		}
	}
	return nil
}

// defaultPrograms and defaultRemote are the SocialNetwork catalog and
// its tail classification, built once: programs are read-only after
// Build and Register copies the classification into each engine, so
// every run can share them.
var (
	defaultPrograms = services.Catalog()
	defaultRemote   = services.RemoteTails()
)

// newServer assembles one AccelFlow server on k — the engine with the
// catalog registered — and returns its empty result. RunSpec builds
// its one server here and FleetSpec each of its replicas.
func newServer(k *sim.Kernel, cfg *config.Config, pol engine.Policy, p engine.Params, programs []*trace.Program, remote map[string]engine.RemoteKind) (*RunResult, error) {
	e, err := engine.New(k, cfg, pol, p)
	if err != nil {
		return nil, err
	}
	if err := e.Register(programs, remote); err != nil {
		return nil, err
	}
	res := newResult(pol.Name)
	res.Engine = e
	return res, nil
}

func newResult(policy string) *RunResult {
	return &RunResult{
		PerService: map[string]*metrics.Recorder{},
		All:        metrics.NewRecorder(policy),
		Net:        metrics.NewRecorder(policy + "/net"),
	}
}

// service returns the recorder for a service name, creating it on
// first use: sources that share a service share one recorder.
func (res *RunResult) service(name string) *metrics.Recorder {
	rec := res.PerService[name]
	if rec == nil {
		rec = metrics.NewRecorder(name)
		res.PerService[name] = rec
	}
	return rec
}

// size makes room in the empty recorders for a 1/replicas share of
// the sources' budgets: each request records at most once, on one
// server.
func (res *RunResult) size(sources []Source, replicas int) {
	per := make(map[string]int, len(sources))
	total := 0
	for _, src := range sources {
		n := (src.Requests + replicas - 1) / replicas
		per[src.Service.Name] += n
		total += n
	}
	// order-insensitive: each service grows its own recorder.
	for name, n := range per {
		res.service(name).Grow(n)
	}
	res.All.Grow(total)
	res.Net.Grow(total)
}

// count records one engine completion. Every completion counts,
// retries included, so conservation against the engine's admission
// counter balances exactly.
func (res *RunResult) count(r engine.Result) {
	res.Completed++
	res.AccelCount += uint64(r.Accels)
	if r.TimedOut {
		res.TimedOut++
	}
	if r.FellBack {
		res.FellBack++
	}
	addBreakdown(&res.Breakdown, r.Breakdown)
}

// record adds a request's final attempt to the latency recorders.
func (res *RunResult) record(rec *metrics.Recorder, r engine.Result) {
	rec.Add(r.Latency)
	res.All.Add(r.Latency)
	// Remote sums ALL peer waits, including overlapped parallel ones,
	// so it can exceed the critical path; floor the on-server estimate
	// at a quarter of the end-to-end latency.
	net := r.Latency - r.Breakdown.Remote
	if net < r.Latency/4 {
		net = r.Latency / 4
	}
	res.Net.Add(net)
}

// merge folds o's recorders and counters into res.
func (res *RunResult) merge(o *RunResult) {
	res.All.Merge(o.All)
	res.Net.Merge(o.Net)
	// order-insensitive: each service merges into its own recorder.
	for name, rec := range o.PerService {
		res.service(name).Merge(rec)
	}
	res.Completed += o.Completed
	res.TimedOut += o.TimedOut
	res.FellBack += o.FellBack
	res.AccelCount += o.AccelCount
	addBreakdown(&res.Breakdown, o.Breakdown)
}

// verify runs the end-of-run invariant suite on a drained server with
// a checker attached. The quiescence-only invariants hold once the
// heap has drained, and the result's own counters serve as the
// independent accounting the conservation check compares against.
func (res *RunResult) verify() error {
	e := res.Engine
	e.Check.CheckConservation(e.K.Now(), res.Completed, res.TimedOut, res.FellBack)
	e.CheckEnd(e.Check)
	return e.Check.Err()
}

// sampler builds the periodic utilization sampler, to be armed with
// Kernel.Every at the sink's sample interval. Every interval it
// converts each resource's busy-time delta into a [0,1] utilization
// sample. The callback only reads counters — it never touches RNG
// streams or queue state — so enabling observability cannot change
// simulation results; and because each source keeps its next arrival
// queued until its last has fired (see bookArrivals), Kernel.Every's
// self-termination rule ends the sampler exactly when the run ends.
func sampler(k *sim.Kernel, e *engine.Engine, sink *obs.Sink) func() {
	span := float64(sink.SampleInterval())
	util := func(delta sim.Time, servers int) float64 {
		if servers < 1 {
			servers = 1
		}
		// BusyTime is charged up front at task start, so a delta can
		// exceed the interval capacity; clamp to 1.
		u := float64(delta) / (span * float64(servers))
		if u > 1 {
			u = 1
		}
		return u
	}
	var last struct {
		cores, manager, dram, adma sim.Time
		pes                        [config.NumAccelKinds]sim.Time
	}
	// Interned per-kind sample names: the tick fires every interval for
	// the whole run, so building them inside the closure would allocate
	// NumAccelKinds strings per tick.
	var peNames [config.NumAccelKinds]string
	for _, kd := range config.AllAccelKinds() {
		peNames[kd] = "util/pe/" + kd.String()
	}
	return func() {
		now := k.Now()
		cores := e.Cores.BusyTime
		sink.Sample("util/cores", now, util(cores-last.cores, e.Cores.Servers))
		last.cores = cores

		mgr := e.Manager.BusyTime
		sink.Sample("util/manager", now, util(mgr-last.manager, e.Manager.Servers))
		last.manager = mgr

		for _, kd := range config.AllAccelKinds() {
			pe := e.Accels[kd].PEs
			sink.Sample(peNames[kd], now, util(pe.BusyTime-last.pes[kd], pe.Servers))
			last.pes[kd] = pe.BusyTime
		}

		dram := e.Mem.BusyTime()
		sink.Sample("util/dram", now, util(dram-last.dram, e.Mem.CtrlCount()))
		last.dram = dram

		adma := e.DMA.Busy()
		sink.Sample("util/adma", now, util(adma-last.adma, e.DMA.Engines()))
		last.adma = adma
	}
}

// stream is one source running on a single server: what an arrival
// and its retry need, held once per source. job is the source's
// request, which the engine only reads; done and retryDone are the
// completion callbacks of a first attempt and of a retry. All three
// are built once.
type stream struct {
	res             *RunResult
	rec             *metrics.Recorder
	ctl             *control.Controller
	src             Source
	job             *engine.Job
	done, retryDone func(engine.Result)
}

func newStream(res *RunResult, ctl *control.Controller, src Source) *stream {
	st := &stream{res: res, rec: res.service(src.Service.Name), ctl: ctl, src: src,
		job: src.Service.Job()}
	st.done = func(r engine.Result) { st.complete(r, false) }
	st.retryDone = func(r engine.Result) { st.complete(r, true) }
	return st
}

// schedule books the source's arrivals. With a controller attached,
// arrivals may be shed before submission and timed-out completions
// re-submitted after a backoff.
//
// Accounting contract: count sees every engine completion (retries
// included); record sees only each request's final attempt, and shed
// arrivals see nothing, so recorder counts equal arrivals - Shed.
func (st *stream) schedule(rng *sim.RNG) {
	bookArrivals(st.res.Engine.K, drawArrivals(st.src, rng), func() {
		if st.ctl != nil && st.ctl.Shed() {
			st.res.Shed++
			return
		}
		st.submit(st.done)
	})
}

// drawArrivals draws all of a source's arrival times, in order, from
// its arrival process. Drawing up front rather than at fire time keeps
// every Arrivals.Next call in one place in the run, so results cannot
// depend on whether two sources share a stateful process (Alibaba
// carries phase).
func drawArrivals(src Source, rng *sim.RNG) []sim.Time {
	times := make([]sim.Time, src.Requests)
	t := sim.Time(0)
	for i := range times {
		t += src.Arrivals.Next(rng)
		times[i] = t
	}
	return times
}

// bookArrivals runs fire at each of times on k while keeping only the
// next arrival queued: it reserves one sequence number per arrival and
// each arrival books its successor under the following one, so every
// arrival keeps the (at, seq) key an eager At loop would have given it.
// The source's next arrival stays queued until its last has fired,
// which is what Kernel.Every's self-termination relies on.
func bookArrivals(k *sim.Kernel, times []sim.Time, fire func()) {
	seq := k.Reserve(len(times))
	next := 0
	var arrive func()
	arrive = func() {
		if next++; next < len(times) {
			k.AtSeq(times[next], seq+uint64(next), arrive)
		}
		fire()
	}
	k.AtSeq(times[0], seq, arrive)
}

// submit hands one attempt of a request to the engine, with the
// stream's first-attempt or retry callback.
func (st *stream) submit(done func(engine.Result)) {
	if st.ctl != nil {
		st.ctl.NoteSubmit()
	}
	st.res.Engine.Submit(st.job, done)
}

// complete accounts for one attempt's completion and, when the
// controller grants it, re-submits a timed-out request once.
func (st *stream) complete(r engine.Result, retried bool) {
	st.res.count(r)
	if st.ctl != nil {
		e := st.res.Engine
		st.ctl.NoteDone(e.K.Now(), r.Latency)
		if r.TimedOut {
			if backoff, ok := st.ctl.RetryAfter(retried); ok {
				st.res.Retries++
				e.K.After(backoff, func() { st.submit(st.retryDone) })
				return
			}
		}
	}
	st.res.record(st.rec, r)
}

func addBreakdown(dst *engine.Breakdown, b engine.Breakdown) {
	dst.CPU += b.CPU
	dst.Accel += b.Accel
	dst.Orch += b.Orch
	dst.Comm += b.Comm
	dst.Remote += b.Remote
	dst.App += b.App
	for k := range b.Tax {
		dst.Tax[k] += b.Tax[k]
	}
}

// SingleService is a convenience for the per-service experiments: one
// service, one arrival process, n requests.
func SingleService(svc *services.Service, arr Arrivals, n int) []Source {
	return []Source{{Service: svc, Arrivals: arr, Requests: n}}
}

// Mix builds sources for a catalog with each service at its own
// Alibaba-like rate, scaled by loadScale, splitting the request budget
// proportionally to the rates with largest-remainder apportionment:
// whenever totalRequests >= len(svcs), the per-source budgets sum to
// exactly totalRequests (plain flooring used to drop up to len(svcs)-1
// requests). Every source still gets at least one request, so for
// totalRequests < len(svcs) the sum is len(svcs).
func Mix(svcs []*services.Service, loadScale float64, totalRequests int) []Source {
	var rateSum float64
	for _, s := range svcs {
		rateSum += s.RatekRPS
	}
	n := len(svcs)
	quota := make([]int, n)
	rem := make([]float64, n)
	assigned := 0
	for i, s := range svcs {
		share := float64(totalRequests) * s.RatekRPS / rateSum
		quota[i] = int(share)
		rem[i] = share - float64(quota[i])
		assigned += quota[i]
	}
	// Hand the flooring leftover (< n requests) to the largest
	// fractional parts; ties break toward the earlier service, keeping
	// the split deterministic.
	if left := totalRequests - assigned; left > 0 {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return rem[order[a]] > rem[order[b]]
		})
		if left > n {
			left = n
		}
		for _, i := range order[:left] {
			quota[i]++
		}
	}
	// Rebalance zero-quota sources from the largest ones so every
	// service appears without changing the exact total.
	for i := range quota {
		if quota[i] > 0 {
			continue
		}
		big := -1
		for j := range quota {
			if quota[j] > 1 && (big < 0 || quota[j] > quota[big]) {
				big = j
			}
		}
		if big >= 0 {
			quota[big]--
		}
		quota[i] = 1
	}
	out := make([]Source, 0, n)
	for i, s := range svcs {
		out = append(out, Source{
			Service:  s,
			Arrivals: &Alibaba{RPS: s.RatekRPS * 1000 * loadScale},
			Requests: quota[i],
		})
	}
	return out
}
