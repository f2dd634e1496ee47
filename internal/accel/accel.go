// Package accel models one AccelFlow accelerator (paper §IV-A/§V):
// an SRAM input queue gating admission, an input dispatcher that feeds
// processing elements (PEs) with scratchpads, and the PE execution
// itself. Output-dispatcher logic (branch resolution, transforms, ATM
// chaining, DMA forwarding) is driven by the engine, which owns the
// cross-accelerator policy; this package provides its serial FSM
// resource and the glue-instruction accounting.
package accel

import (
	"fmt"

	"accelflow/internal/config"
	"accelflow/internal/mem"
	"accelflow/internal/noc"
	"accelflow/internal/obs"
	"accelflow/internal/sim"
	"accelflow/internal/trace"
)

// Entry is one in-flight trace-execution instance as it moves between
// queues, PEs, and dispatchers.
type Entry struct {
	Prog  *trace.Program
	PC    int // Position Mark: index of the instruction being executed
	Flags trace.Flags

	DataBytes int // current payload size
	Tenant    int

	Deadline sim.Time // for the EDF input-dispatcher policy (§IV-C)

	// LastPEHold records the most recent PE occupancy (load + wipe +
	// compute), for execution-time breakdowns.
	LastPEHold sim.Time
	// Span, when observability is enabled, receives the entry's queue
	// and compute segments; nil disables recording.
	Span *obs.Span
	// UserData carries the engine's execution context opaquely.
	UserData interface{}
}

// AdmitResult is the outcome of offering an entry to an input queue.
type AdmitResult int

const (
	// Admitted: the entry occupies an input queue slot.
	Admitted AdmitResult = iota
	// Overflowed: the queue was full; the entry went to the in-memory
	// overflow area (only output dispatchers may do this, §IV-A).
	Overflowed
	// Rejected: queue and overflow area are both full; the caller must
	// fall back to the CPU.
	Rejected
)

// Stats aggregates one accelerator's activity counters.
type Stats struct {
	Invocations uint64
	BusyTime    sim.Time
	GlueInstrs  uint64 // output-dispatcher RISC instructions (§VII-B.2)
	GluePasses  uint64
	Overflows   uint64
	Rejections  uint64
	TenantWipes uint64
	// InSizes and OutSizes are the sampled input and output payload
	// sizes (Fig. 5); they stay nil unless the accelerator's
	// SampleSizes is set.
	InSizes       []int
	OutSizes      []int
	ArmedTimeouts uint64
	// ArmRejections counts Arm calls that found no free queue slot.
	// Distinct from ArmedTimeouts: a rejection is back-pressure, not a
	// lost response, and must not inflate the paper's timeout rate.
	ArmRejections uint64
}

// Accelerator is one instance of one accelerator kind.
type Accelerator struct {
	Kind config.AccelKind
	Node noc.Node

	cfg *config.Config
	k   *sim.Kernel
	PEs *sim.Resource
	// OutDisp serializes output-dispatcher passes (one FSM per
	// accelerator, §V-2).
	OutDisp *sim.Resource
	TLB     *mem.TLB

	inCount  int
	inCap    int
	armed    int // queue slots held by armed response traces (§IV-B)
	overflow []*pendingEntry
	ovCap    int

	// Interned observability resource tags. The hot path records a span
	// segment per PE service and per overflow drain; building
	// "pe/"+Kind.String() there allocated a string per invocation.
	peName string
	ovName string
	// OutDispName tags the engine's per-pass glue segments.
	OutDispName string

	lastTenant int

	// failed marks the accelerator as unavailable for new admissions
	// (fault injection). In-flight entries drain normally; Offer and
	// Arm reject until the fault window clears.
	failed bool

	// OnReady is invoked when a PE finishes an entry and the entry has
	// been deposited in the output queue; the engine runs the output
	// dispatcher from here.
	OnReady func(*Entry)

	// SampleSizes turns on Fig. 5's size sampler: every sampleEvery-th
	// PE completion, from the first, appends its input and output sizes
	// to Stats.InSizes and Stats.OutSizes. Only fig5 reads them, so
	// every other run leaves it off and allocates nothing for them.
	SampleSizes bool

	Stats Stats

	// cycle is one output-dispatcher instruction's time,
	// cfg.DispatcherTime(1), computed once; GluePass multiplies it.
	cycle sim.Time

	// sampleIn counts the PE completions left until the size sampler
	// next records one (see SampleSizes).
	sampleIn int

	// freePE recycles peTask records so each PE invocation reuses one
	// pooled struct instead of allocating a Task and two closures;
	// freeArm does the same for armed response slots.
	freePE  *peTask
	freeArm *armTask
}

// peTask is one pooled PE invocation: the submitted Task plus the
// context its callbacks need. started/done are bound as method values
// once, at allocation, so steady-state invocations allocate nothing.
type peTask struct {
	a       *Accelerator
	e       *Entry
	offered sim.Time
	task    sim.Task
	next    *peTask

	// startedFn/doneFn hold the bound method values; evaluating p.started
	// inline would allocate a fresh binding per invocation.
	startedFn func()
	doneFn    func()
}

// started is the Task.Started callback: the entry leaves the input
// queue for the PE, and the inter-tenant scratchpad wipe is charged
// in PE execution order (see the comment in start).
func (p *peTask) started() {
	a := p.a
	e := p.e
	a.inCount--
	a.drainOverflow()
	if e.Tenant != a.lastTenant {
		a.lastTenant = e.Tenant
		a.Stats.TenantWipes++
		p.task.Hold += a.cfg.ScratchWipe
		e.LastPEHold = p.task.Hold
		a.Stats.BusyTime += a.cfg.ScratchWipe
	}
}

// done is the Task.Done callback. It extracts its context and recycles
// the record up front: OnReady can re-enter start (chained entries),
// and the recycled record must be free for reuse by then — nothing
// after the recycle reads p.
func (p *peTask) done() {
	a := p.a
	e := p.e
	offered := p.offered
	p.e = nil
	p.next = a.freePE
	a.freePE = p
	// The PE held the entry contiguously for LastPEHold, so the service
	// window is [now-hold, now]; everything since the offer before that
	// was input-queue wait.
	now := a.k.Now()
	e.Span.Seg(obs.SegQueue, a.peName, offered, now-e.LastPEHold)
	e.Span.Seg(obs.SegCompute, a.peName, now-e.LastPEHold, now)
	a.Stats.Invocations++
	in := e.DataBytes
	out := OutputBytes(a.cfg, a.Kind, in)
	e.DataBytes = out
	if a.SampleSizes {
		if a.sampleIn == 0 {
			a.sampleIn = sampleEvery
			a.Stats.InSizes = append(a.Stats.InSizes, in)
			a.Stats.OutSizes = append(a.Stats.OutSizes, out)
		}
		a.sampleIn--
	}
	if a.OnReady != nil {
		a.OnReady(e)
	}
}

// sampleEvery is the size sampler's stride (Fig. 5): invocations 0,
// sampleEvery, 2·sampleEvery, … record their input and output sizes.
const sampleEvery = 7

type pendingEntry struct {
	e      *Entry
	parked sim.Time // when the entry entered the overflow area
}

// New constructs an accelerator of the given kind at the given node.
func New(k *sim.Kernel, cfg *config.Config, kind config.AccelKind, node noc.Node, rng *sim.RNG, disc sim.Discipline) *Accelerator {
	return &Accelerator{
		Kind:        kind,
		Node:        node,
		cfg:         cfg,
		k:           k,
		PEs:         sim.NewResource(k, fmt.Sprintf("%v.pes", kind), cfg.PEsFor(kind), disc),
		OutDisp:     sim.NewResource(k, fmt.Sprintf("%v.outdisp", kind), 1, sim.FIFO),
		TLB:         mem.NewTLB(cfg, rng),
		inCap:       cfg.InputQueueEntries,
		ovCap:       cfg.OverflowEntries,
		lastTenant:  -1,
		cycle:       cfg.DispatcherTime(1),
		peName:      "pe/" + kind.String(),
		ovName:      "overflow/" + kind.String(),
		OutDispName: "outdisp/" + kind.String(),
	}
}

// QueueFree reports free input-queue slots.
func (a *Accelerator) QueueFree() int { return a.inCap - a.inCount - a.armed }

// SetFailed marks the accelerator failed (true) or recovered (false).
// A failed accelerator rejects all new admissions and arms; entries
// already queued or in PEs drain normally.
func (a *Accelerator) SetFailed(f bool) { a.failed = f }

// Failed reports whether the accelerator is in a failure window.
func (a *Accelerator) Failed() bool { return a.failed }

// Offer attempts to admit an entry. allowOverflow distinguishes output
// dispatchers (which spill to the overflow area) from CPU Enqueue
// (which gets an error and retries, §IV-A).
func (a *Accelerator) Offer(e *Entry, allowOverflow bool) AdmitResult {
	if a.failed {
		a.Stats.Rejections++
		return Rejected
	}
	if a.QueueFree() > 0 {
		a.inCount++
		a.start(e)
		return Admitted
	}
	if allowOverflow && len(a.overflow) < a.ovCap {
		a.Stats.Overflows++
		a.overflow = append(a.overflow, &pendingEntry{e: e, parked: a.k.Now()})
		return Overflowed
	}
	a.Stats.Rejections++
	return Rejected
}

// ArmResult is the outcome of trying to arm a response trace.
type ArmResult int

const (
	// ArmOK: a queue slot is reserved; the trace fires on arrival or
	// onTimeout runs at the TCP timeout.
	ArmOK ArmResult = iota
	// ArmRejected: no free slot (or the accelerator is failed). Nothing
	// is scheduled — the caller decides how to service the response in
	// software. This is back-pressure, not a timeout.
	ArmRejected
)

// Arm reserves an input-queue slot for a response trace that will be
// triggered by a future message (the paper's asterisk continuations).
// The trace fires when the message arrives after wait; if wait exceeds
// the TCP timeout, onTimeout runs instead and the slot is released.
// With no free slot Arm returns ArmRejected and schedules nothing.
func (a *Accelerator) Arm(e *Entry, wait sim.Time, onTimeout func()) ArmResult {
	if a.failed || a.QueueFree() <= 0 {
		a.Stats.ArmRejections++
		return ArmRejected
	}
	a.armed++
	p := a.freeArm
	if p == nil {
		p = &armTask{a: a}
		p.fn = p.fire
	} else {
		a.freeArm = p.next
		p.next = nil
	}
	p.e, p.onTimeout = e, onTimeout
	p.timeout = wait > a.cfg.TCPTimeout
	if p.timeout {
		wait = a.cfg.TCPTimeout
	}
	a.k.After(wait, p.fn)
	return ArmOK
}

// armTask is one pooled armed slot: the entry its response triggers,
// or, when the response is lost, the callback its TCP timeout runs.
// fn (fire, bound once) runs when the slot's wait ends.
type armTask struct {
	a         *Accelerator
	e         *Entry
	onTimeout func()
	timeout   bool
	next      *armTask
	fn        func()
}

// fire releases the armed slot. Like peTask.done it recycles the
// record before anything it calls can arm again.
func (p *armTask) fire() {
	a, e, onTimeout, timeout := p.a, p.e, p.onTimeout, p.timeout
	p.e, p.onTimeout = nil, nil
	p.next = a.freeArm
	a.freeArm = p
	a.armed--
	if !timeout {
		a.inCount++
		a.start(e)
		return
	}
	a.Stats.ArmedTimeouts++
	// The released slot must pull waiting overflow entries in: an
	// armed slot expiring is the only queue departure that does not
	// pass through a PE start, so without this drain a parked entry
	// could wait forever.
	a.drainOverflow()
	if onTimeout != nil {
		onTimeout()
	}
}

// start runs the input-dispatcher path for an admitted entry via a
// pooled peTask. The inter-tenant scratchpad wipe (§IV-D) is decided
// in peTask.started — in PE execution order — not at submission:
// queued entries from interleaved tenants can be admitted in a
// different order than they were offered (EDF), and the wipe
// belongs to whichever entry actually follows a different tenant onto
// the PE. Started runs before the resource reads task.Hold, so the
// extension is charged.
func (a *Accelerator) start(e *Entry) {
	load := a.loadTime(e.DataBytes) + a.TLB.Access()
	compute := a.cfg.AccelCost(a.Kind, e.DataBytes)
	p := a.freePE
	if p == nil {
		p = &peTask{a: a}
		p.startedFn = p.started
		p.doneFn = p.done
	} else {
		a.freePE = p.next
	}
	p.e = e
	p.offered = a.k.Now()
	p.task = sim.Task{
		Deadline: e.Deadline,
		Started:  p.startedFn,
		Done:     p.doneFn,
		Hold:     load + compute,
	}
	e.LastPEHold = p.task.Hold
	a.Stats.BusyTime += p.task.Hold
	a.PEs.Submit(&p.task)
}

func (a *Accelerator) drainOverflow() {
	for len(a.overflow) > 0 && a.QueueFree() > 0 {
		p := a.overflow[0]
		a.overflow = a.overflow[1:]
		a.inCount++
		pe := p
		// Reading the overflowed entry back from memory costs an LLC
		// touch before it can be dispatched; it holds its queue slot
		// (inCount already incremented) during the read.
		a.k.After(a.cfg.LLCLatency, func() {
			pe.e.Span.Seg(obs.SegQueue, a.ovName, pe.parked, a.k.Now())
			a.start(pe.e)
		})
	}
}

// loadTime is the input queue -> scratchpad transfer (Table III: 10ns
// latency, 100 GB/s for inline data) plus a spill fetch for >2KB
// payloads via the memory pointer.
func (a *Accelerator) loadTime(bytes int) sim.Time {
	inline := bytes
	if inline > a.cfg.InlineDataBytes {
		inline = a.cfg.InlineDataBytes
	}
	t := a.cfg.QueueToPadLatency + sim.FromNanos(float64(inline)/a.cfg.QueueToPadGBs)
	if spill := bytes - inline; spill > 0 {
		// Spill data is cacheable and read through the LLC (§IV-A).
		t += a.cfg.LLCLatency + sim.FromNanos(float64(spill)/100.0)
	}
	return t
}

// OutputBytes models how each accelerator changes the payload size:
// compression shrinks, decompression expands, serialization adds
// protocol overhead, deserialization removes it; the others are
// size-preserving. LdB carries no data (§III-Q3).
func OutputBytes(cfg *config.Config, k config.AccelKind, in int) int {
	switch k {
	case config.Cmp:
		out := int(float64(in) * cfg.CmpRatio)
		if out < 64 {
			out = 64
		}
		return out
	case config.Dcmp:
		return int(float64(in) / cfg.CmpRatio)
	case config.Ser:
		return int(float64(in) * cfg.SerOverhead)
	case config.Dser:
		return int(float64(in) / cfg.SerOverhead)
	default:
		// Size-preserving, LdB included.
		return in
	}
}

// GluePass charges one output-dispatcher pass of the given instruction
// count and updates the glue statistics.
func (a *Accelerator) GluePass(instrs int) sim.Time {
	a.Stats.GlueInstrs += uint64(instrs)
	a.Stats.GluePasses++
	return sim.Time(instrs) * a.cycle
}

// MeanGlueInstrs is the average instructions per output-dispatcher
// operation (§VII-B.2 reports 18 for the paper's services).
func (s *Stats) MeanGlueInstrs() float64 {
	if s.GluePasses == 0 {
		return 0
	}
	return float64(s.GlueInstrs) / float64(s.GluePasses)
}

// OverflowLen reports entries currently parked in the overflow area.
func (a *Accelerator) OverflowLen() int { return len(a.overflow) }

// InQueueLen reports occupied input-queue slots (including armed).
func (a *Accelerator) InQueueLen() int { return a.inCount + a.armed }

// InQueueCap reports the input queue's slot capacity.
func (a *Accelerator) InQueueCap() int { return a.inCap }

// OverflowCap reports the overflow area's entry capacity.
func (a *Accelerator) OverflowCap() int { return a.ovCap }

// Armed reports queue slots currently held by armed response traces.
func (a *Accelerator) Armed() int { return a.armed }
