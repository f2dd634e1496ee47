// Package engine assembles the simulated AccelFlow server — cores,
// accelerator ensemble, A-DMA pool, ATM, interconnect, memory — and
// executes requests under one of the orchestration policies (Non-acc,
// CPU-Centric, RELIEF-like, Cohort-like, the Fig. 13 ladder, AccelFlow,
// Ideal).
package engine

import (
	"fmt"

	"accelflow/internal/accel"
	"accelflow/internal/atm"
	"accelflow/internal/check"
	"accelflow/internal/config"
	"accelflow/internal/fault"
	"accelflow/internal/mem"
	"accelflow/internal/noc"
	"accelflow/internal/obs"
	"accelflow/internal/sim"
	"accelflow/internal/trace"
)

// defaultRemoteLossRate is the paper's observed rate of lost remote
// responses: 3.2 TCP timeouts per million requests (§VII-B.6). A fault
// injector with Spec.RemoteLossRate > 0 overrides it for the run.
const defaultRemoteLossRate = 3.2e-6

// Engine is one simulated server under one policy.
type Engine struct {
	K   *sim.Kernel
	Cfg *config.Config
	Pol Policy

	Net   *noc.Network
	Place *noc.Placement
	Mem   *mem.Memory
	DMA   *accel.DMAPool
	ATM   *atm.ATM

	Cores    *sim.Resource
	Manager  *sim.Resource // RELIEF-like centralized manager
	CentralQ *sim.Resource // RELIEF base shared dispatch queue

	Accels [config.NumAccelKinds]*accel.Accelerator

	// RemoteTails classifies each trace's tail edge (set from the
	// service catalog).
	RemoteTails map[string]RemoteKind

	// Obs records per-request spans and segments when attached via
	// Params.Obs; nil disables recording (all obs calls no-op).
	Obs *obs.Sink

	// Faults is the attached injector (nil when injection is off).
	Faults *fault.Injector

	// Check is the attached runtime invariant checker (nil disables
	// checking; every check call no-ops on nil).
	Check *check.Checker

	rng          *sim.RNG
	tenantActive map[int]int
	lossRate     float64
	Stats        Stats

	// centralQDispatchCost is the serialization cost of the base
	// RELIEF single shared queue per dispatch.
	centralQDispatchCost sim.Time
	// notifyDelay is the completion notification's cost,
	// Cfg.NotifyLatency() + Cfg.PollPickupDelay, computed once.
	notifyDelay sim.Time

	// Free lists recycling the engine's pooled records: requests and
	// entries, which also carry their pending continuation (exec.go),
	// chains, and CPU trace segments (nonacc.go). An engine is
	// single-threaded like its kernel, so plain linked lists suffice.
	freeReq   *request
	freeEnt   *entryState
	freeChain *chainState
	freeSeg   *cpuSeg
}

// New builds an engine for the given config and policy. Programs must
// be registered on the returned engine's ATM before submitting jobs.
// Behavior beyond the required arguments — RNG seed, observability,
// fault injection, invariant checking — is configured with Params
// (the zero value is valid).
func New(k *sim.Kernel, cfg *config.Config, pol Policy, p Params) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(p.Seed)
	e := &Engine{
		K: k, Cfg: cfg, Pol: pol,
		Net:          noc.NewNetwork(cfg),
		Place:        noc.NewPlacement(cfg),
		Mem:          mem.NewMemory(k, cfg),
		ATM:          atm.New(cfg.ATMReadLatency),
		Cores:        sim.NewResource(k, "cores", cfg.Cores, sim.FIFO),
		Manager:      sim.NewResource(k, "manager", maxInt(1, cfg.ManagerWidth), sim.FIFO),
		CentralQ:     sim.NewResource(k, "centralq", 1, sim.FIFO),
		RemoteTails:  map[string]RemoteKind{},
		rng:          rng,
		tenantActive: map[int]int{},
		lossRate:     defaultRemoteLossRate,

		centralQDispatchCost: sim.FromNanos(150),
		notifyDelay:          cfg.NotifyLatency() + cfg.PollPickupDelay,
	}
	e.DMA = accel.NewDMAPool(k, cfg, e.Net, e.Mem)
	disc := sim.FIFO
	if pol.EDF {
		disc = sim.EDF
	}
	for _, kd := range config.AllAccelKinds() {
		a := accel.New(k, cfg, kd, e.Place.AccelNode(kd), rng.Fork(int64(kd)+100), disc)
		a.OnReady = func(ent *accel.Entry) { e.onPEComplete(a, ent.UserData.(*entryState)) }
		a.SampleSizes = p.SampleSizes
		e.Accels[kd] = a
	}
	e.Obs = p.Obs
	e.Obs.SetClock(k)
	if e.Obs != nil {
		// Event-granular ATM visibility: every continuation-trace read
		// lands a point on the cumulative-reads timeline.
		atmRef := e.ATM
		sink := e.Obs
		atmRef.OnRead = func(string, sim.Time) {
			sink.Sample("atm.reads", k.Now(), float64(atmRef.Reads))
		}
	}
	if p.Faults != nil {
		if err := p.Faults.Spec.Validate(); err != nil {
			return nil, err
		}
		p.Faults.Attach(k, fault.Targets{
			Accels:  e.Accels,
			DMA:     e.DMA,
			Manager: e.Manager,
			ATM:     e.ATM,
			Net:     e.Net,
			Sink:    e.Obs,
		})
		if lr := p.Faults.Spec.RemoteLossRate; lr > 0 {
			e.lossRate = lr
		}
		e.Faults = p.Faults
	}
	if p.Check != nil {
		e.Check = p.Check
		// The kernel observer is only installed when checking is on, so
		// a disabled run pays one nil check per event.
		k.OnEvent(e.Check.Event)
	}
	return e, nil
}

// Register adds trace programs and their tail classifications.
func (e *Engine) Register(programs []*trace.Program, remote map[string]RemoteKind) error {
	for _, p := range programs {
		if err := e.ATM.Register(p); err != nil {
			return err
		}
	}
	// order-insensitive: a map copy.
	for name, rk := range remote {
		e.RemoteTails[name] = rk
	}
	return nil
}

// Submit runs one request; done receives the result when it completes.
// The engine reads job but never writes it, so callers may share one
// Job between requests.
func (e *Engine) Submit(job *Job, done func(Result)) {
	e.Stats.Requests++
	e.Check.RequestAdmitted()
	r := e.freeReq
	if r == nil {
		r = &request{eng: e}
		r.fn = r.resume
	} else {
		e.freeReq = r.next
		r.next = nil
	}
	r.job, r.arrived, r.done = job, e.K.Now(), done
	r.sp = e.Obs.BeginRequest(job.Service)
	if job.SLO > 0 {
		r.deadline = e.K.Now() + job.SLO
	}
	r.runStep(0)
}

// request tracks one in-flight job. It is also the record of the
// request's pending continuation: a request runs one step at a time,
// so resume serves both the app step's core hold (through fn, bound
// once) and the join of the step's chains. Requests recycle through
// Engine.freeReq once finish has handed their Result to done.
type request struct {
	eng      *Engine
	job      *Job
	arrived  sim.Time
	deadline sim.Time
	done     func(Result)
	sp       *obs.Span

	bd       Breakdown
	accels   int
	fellBack bool
	timedOut bool

	// step is the index of the running step and ssp its span.
	// remaining counts a StepParallel's unfinished chains; start and
	// hold are an app step's core request time and hold.
	step        int
	ssp         *obs.Span
	remaining   int
	start, hold sim.Time

	next *request
	fn   func()
}

func (r *request) runStep(i int) {
	if i >= len(r.job.Steps) {
		r.finish()
		return
	}
	r.step = i
	st := &r.job.Steps[i]
	switch st.Kind {
	case StepApp:
		r.hold = r.eng.Cfg.AppCost(st.App)
		r.start = r.eng.K.Now()
		r.ssp = r.sp.Child(obs.SpanStep, "app")
		r.eng.Cores.Do(r.hold, r.fn)
	case StepChain:
		// Build the label only when a sink is attached: Child on a nil
		// span no-ops, but the concat argument would still allocate.
		r.ssp = nil
		if r.sp != nil {
			r.ssp = r.sp.Child(obs.SpanStep, "chain:"+st.Trace)
		}
		r.eng.startChain(r, st.Trace, r.stepProbs(st))
	case StepParallel:
		n := len(st.Par)
		if n == 0 {
			r.runStep(i + 1)
			return
		}
		r.ssp = r.sp.Child(obs.SpanStep, "parallel")
		r.remaining = n
		for _, tn := range st.Par {
			r.eng.startChain(r, tn, r.stepProbs(st))
		}
	default:
		panic(fmt.Sprintf("engine: unknown step kind %d", st.Kind))
	}
}

// resume runs when the running step's core hold ends or one of its
// chains completes, and moves on once the step is over.
func (r *request) resume() {
	switch r.job.Steps[r.step].Kind {
	case StepApp:
		r.bd.CPU += r.eng.K.Now() - r.start
		r.bd.App += r.hold
		r.ssp.QueuedSeg(obs.SegCPU, "cores", r.start, r.hold)
	case StepParallel:
		if r.remaining--; r.remaining > 0 {
			return
		}
	}
	r.ssp.End()
	r.runStep(r.step + 1)
}

func (r *request) finish() {
	e := r.eng
	r.sp.End()
	e.Check.RequestDone(r.timedOut, r.fellBack)
	res := Result{
		Latency:   e.K.Now() - r.arrived,
		Breakdown: r.bd,
		Accels:    r.accels,
		FellBack:  r.fellBack,
		TimedOut:  r.timedOut,
	}
	if r.done != nil {
		r.done(res)
	}
	*r = request{eng: e, fn: r.fn, next: e.freeReq}
	e.freeReq = r
}

// stepProbs picks the step's probability override or the job default.
func (r *request) stepProbs(st *Step) FlagProbs {
	if st.Probs != nil {
		return *st.Probs
	}
	return r.job.Probs
}

// startChain launches one trace chain (following tails and forks) of
// r's running step; the chain resumes r when it — including all its
// forks — completes.
func (e *Engine) startChain(r *request, traceName string, probs FlagProbs) {
	prog, ok := e.ATM.Lookup(traceName)
	if !ok {
		panic(fmt.Sprintf("engine: trace %q not registered", traceName))
	}
	flags := probs.Draw(e.rng)
	payload := int(e.rng.LogNormal(r.job.PayloadMedian, r.job.PayloadSigma))
	if payload < 64 {
		payload = 64
	}
	c := e.freeChain
	if c == nil {
		c = &chainState{}
	} else {
		e.freeChain = c.next
	}
	*c = chainState{req: r, outstanding: 1, sp: r.ssp.Child(obs.SpanChain, traceName)}

	// Tenant trace-count limit (§IV-D): at the threshold the trace
	// cannot be initiated and falls back to the CPU.
	t := r.job.Tenant
	if e.tenantActive[t] >= e.Cfg.TenantTraceLimit {
		e.Stats.FallbacksTenant++
		r.fellBack = true
		ent := e.newEntry(r, c, prog, flags, payload)
		e.cpuFallback(ent, 0)
		return
	}
	e.tenantActive[t]++
	c.tenant = t
	c.counted = true

	if !e.Pol.UseAccels {
		e.runCPUSegment(c, nil, prog, 0, flags, payload)
		return
	}
	ent := e.newEntry(r, c, prog, flags, payload)
	// Receive-type traces (first accelerator TCP at PC 0 with the
	// request arriving from the network) are triggered by the message:
	// no core Enqueue. Everything else is core-triggered.
	if prog.Instrs[0].Kind == trace.OpInvoke && prog.Instrs[0].Accel == config.TCP {
		e.deliver(ent, true)
		return
	}
	e.enqueueFromCore(ent)
}

// chainState joins a chain's main path and its forks. Chains recycle
// through Engine.freeChain once their last path ends.
type chainState struct {
	req         *request
	tenant      int
	counted     bool
	outstanding int
	sp          *obs.Span
	next        *chainState
}

func (c *chainState) fork() { c.outstanding++ }

// childDone ends one of the chain's paths; the last one returns the
// chain's record to the pool, then resumes its request.
func (c *chainState) childDone(e *Engine) {
	c.outstanding--
	if c.outstanding > 0 {
		return
	}
	if c.counted {
		e.tenantActive[c.tenant]--
	}
	c.sp.End()
	r := c.req
	*c = chainState{next: e.freeChain}
	e.freeChain = c
	r.resume()
}

// entryState wraps an accel.Entry with its chain bookkeeping. It is
// also the record of the entry's pending continuation: an entry moves
// through the server one step at a time, so it never has more than one
// engine callback outstanding, and fn (step, bound once) serves every
// resource hold, memory leg, DMA transfer and timer it waits on (see
// exec.go). Entries recycle through Engine.freeEnt once their trace
// ends or falls back to a core.
type entryState struct {
	accel.Entry
	eng     *Engine
	chain   *chainState
	retries int
	sp      *obs.Span

	// wait names what fn is waiting for; then is what runs once the
	// pending engagement and its memory legs are over.
	wait waitKind
	then action
	// a and fromDispatcher are the arguments of then's call.
	a              *accel.Accelerator
	fromDispatcher bool
	// The engagement: a resource held for hold; t0 is when it began
	// waiting, and name and seg label its obs segments. t0 is reused as
	// the start of the memory legs and DMA transfers that follow.
	name string
	seg  obs.SegKind
	t0   sim.Time
	hold sim.Time
	// legs DRAM transfers of legBytes each run before then.
	legs     int
	legBytes int
	// pc is where doWalk resumes; tail names the continuation trace of
	// doTail and doLoadTail, and prog is that trace once read.
	pc          int
	tail        string
	prog        *trace.Program
	rk          RemoteKind
	viaMediator bool
	attempt     int
	// forks collects the walk's fork names; the glue pass spawns them.
	// Its backing array is reused by the entry's later walks.
	forks []string
	// progBytes is Prog.EncodedBytes(), the trace payload every
	// transfer charges; it is refreshed whenever Prog is set (newEntry,
	// tailLoaded).
	progBytes int

	next *entryState
	fn   func()
}

// newEntry takes an entry record from the pool, or allocates one, and
// starts it at PC 0 of prog.
func (e *Engine) newEntry(r *request, c *chainState, prog *trace.Program, f trace.Flags, payload int) *entryState {
	ent := e.freeEnt
	if ent == nil {
		ent = &entryState{eng: e}
		ent.fn = ent.step
	} else {
		e.freeEnt = ent.next
		ent.next = nil
	}
	ent.Entry = accel.Entry{
		Prog: prog, PC: 0, Flags: f,
		DataBytes: payload, Tenant: r.job.Tenant,
		Deadline: r.deadline,
	}
	ent.progBytes = prog.EncodedBytes()
	ent.chain = c
	ent.retries = 0
	ent.sp = c.sp.Child(obs.SpanEntry, prog.Name)
	ent.Entry.Span = ent.sp
	ent.Entry.UserData = ent
	return ent
}

// release returns a finished entry to the pool. The caller must have
// read everything it still needs from ent.
func (e *Engine) release(ent *entryState) {
	ent.chain, ent.sp, ent.a, ent.prog = nil, nil, nil, nil
	ent.Entry = accel.Entry{}
	ent.next = e.freeEnt
	e.freeEnt = ent
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TenantActive reports the live trace count for a tenant (tests).
func (e *Engine) TenantActive(t int) int { return e.tenantActive[t] }
