package engine

import (
	"accelflow/internal/config"
	"accelflow/internal/sim"
	"accelflow/internal/trace"
)

// StepKind classifies the elements of a service's execution path
// (paper Table IV).
type StepKind int

const (
	// StepApp runs application logic on a core.
	StepApp StepKind = iota
	// StepChain starts one trace chain (tails followed automatically).
	StepChain
	// StepParallel starts several trace chains concurrently and joins
	// them (e.g. CPost's "4x(T9-T10)").
	StepParallel
)

// Step is one element of a request's execution path.
type Step struct {
	Kind StepKind
	// App is the nominal app-logic duration (scaled by generation).
	App sim.Time
	// Trace is the starting trace name for StepChain.
	Trace string
	// Par lists the starting traces of StepParallel.
	Par []string
	// Probs, when non-nil, overrides the job's flag probabilities for
	// the chains of this step (services whose legs differ, e.g. a
	// compressed timeline read next to a plain nested RPC).
	Probs *FlagProbs
}

// FlagProbs gives the per-request probabilities of each payload flag;
// the engine draws one flag set per trace chain.
type FlagProbs struct {
	PCompressed  float64
	PHit         float64
	PFound       float64
	PException   float64
	PCCompressed float64
}

// Draw samples a flag set.
func (p FlagProbs) Draw(rng *sim.RNG) trace.Flags {
	var f trace.Flags
	if rng.Bool(p.PCompressed) {
		f |= trace.FlagCompressed
	}
	if rng.Bool(p.PHit) {
		f |= trace.FlagHit
	}
	if rng.Bool(p.PFound) {
		f |= trace.FlagFound
	}
	if rng.Bool(p.PException) {
		f |= trace.FlagException
	}
	if rng.Bool(p.PCCompressed) {
		f |= trace.FlagCCompressed
	}
	return f
}

// Common returns the most likely flag set (each bit set iff its
// probability exceeds 1/2), defining the "most common execution path"
// of Table IV.
func (p FlagProbs) Common() trace.Flags {
	var f trace.Flags
	if p.PCompressed > 0.5 {
		f |= trace.FlagCompressed
	}
	if p.PHit > 0.5 {
		f |= trace.FlagHit
	}
	if p.PFound > 0.5 {
		f |= trace.FlagFound
	}
	if p.PException > 0.5 {
		f |= trace.FlagException
	}
	if p.PCCompressed > 0.5 {
		f |= trace.FlagCCompressed
	}
	return f
}

// RemoteKind classifies what a trace's ATM tail waits for before the
// continuation fires (DESIGN.md: the far side of nested messages is a
// latency model).
type RemoteKind int

const (
	// RemoteNone: the continuation loads immediately (same dispatcher).
	RemoteNone RemoteKind = iota
	// RemoteCache: round trip to the database cache.
	RemoteCache
	// RemoteDB: round trip to the database.
	RemoteDB
	// RemoteSvc: round trip to a peer microservice (nested RPC/HTTP).
	RemoteSvc
)

// Job is one request instance submitted to the engine.
type Job struct {
	Service string
	Steps   []Step
	Probs   FlagProbs

	// PayloadMedian/Sigma parameterize the lognormal payload size of
	// each chain (Fig. 5's small-median, long-tail shape).
	PayloadMedian float64
	PayloadSigma  float64

	Tenant int
	// SLO, if nonzero, sets the deadline used by EDF scheduling.
	SLO sim.Time
}

// Breakdown attributes a request's end-to-end time to the Fig. 17
// components. Queue time is folded into the component that waited.
type Breakdown struct {
	CPU   sim.Time // app logic + tax run on cores (Non-acc/fallback)
	Accel sim.Time // PE occupancy
	Orch  sim.Time // dispatcher glue, manager, interrupts, enqueues
	Comm  sim.Time // DMA, NoC, memory moves, notifications
	// Remote is time waiting for the far side of nested RPC/DB/HTTP
	// messages — part of latency but not of this server's work, so it
	// is excluded from Total (Fig. 17 reports on-server components).
	Remote sim.Time

	// App isolates the application-logic part of CPU, and Tax records
	// per-category tax time, for the Fig. 1 breakdown.
	App sim.Time
	Tax [config.NumAccelKinds]sim.Time
}

// Total sums the attributed components (excludes pure queueing).
func (b Breakdown) Total() sim.Time { return b.CPU + b.Accel + b.Orch + b.Comm }

// Result reports one completed request.
type Result struct {
	Latency   sim.Time
	Breakdown Breakdown
	// Accels counts accelerator invocations performed (Table IV).
	Accels int
	// FellBack reports whether any part ran on the CPU fallback path.
	FellBack bool
	// TimedOut reports a TCP armed-trace timeout (§IV-B).
	TimedOut bool
}

// Stats aggregates engine-level counters across a run.
type Stats struct {
	Requests         uint64
	FallbacksQueue   uint64 // input queue + overflow full
	FallbacksTenant  uint64 // tenant trace limit (§IV-D)
	FallbacksFailed  uint64 // accelerator in a failure window (fault injection)
	Timeouts         uint64 // genuine TCP timeouts (lost responses)
	ArmRejects       uint64 // response-trace arms refused for lack of a queue slot
	TimeoutRearms    uint64 // re-arm attempts after a TCP timeout (Cfg.TimeoutRearms)
	EnqueueBackoffs  uint64 // delayed Enqueue retries (Cfg.EnqueueBackoff)
	ForksSpawned     uint64
	MediatorBranches uint64
}
