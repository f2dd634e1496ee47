package engine

import (
	"accelflow/internal/check"
	"accelflow/internal/fault"
	"accelflow/internal/obs"
)

// Params collects the engine's optional behavior in one documented
// struct — the single options surface for engine assembly.
// workload.RunSpec and workload.FleetSpec are the user-facing specs:
// each maps its fields onto Params and hands them to the workload
// package's one server builder (newServer), which calls New and
// Register for the single server and for every fleet replica, each
// replica on its own kernel, so there is exactly one knob per behavior
// and one assembly path.
// The zero value is valid: seed 0, no observability, no faults, no
// checking, no size sampling.
type Params struct {
	// Seed seeds the engine's RNG (flag draws, payload sizes, remote
	// waits, TLB streams). Used as-is; equal seeds give bit-identical
	// runs.
	Seed int64

	// Obs, when non-nil, records a span per request / chain /
	// accelerator entry with queue, dispatch, compute, DMA, NoC, and
	// interrupt segments. A nil sink disables recording (all obs calls
	// no-op).
	Obs *obs.Sink

	// Faults, when non-nil, is wired to the built accelerators, A-DMA
	// pool, manager, ATM, and NoC, and its windows are scheduled on the
	// kernel. An injector with Rate 0 attaches but schedules nothing,
	// leaving results bit-identical to Faults == nil.
	Faults *fault.Injector

	// Check, when non-nil, hooks the runtime invariant checker into the
	// kernel's per-event observer and the engine's request accounting;
	// CheckEnd runs the per-resource end-of-run suite against it.
	// Checker hooks only read state — they never touch RNG streams or
	// schedule events — so an attached checker cannot change results.
	Check *check.Checker

	// SampleSizes turns on every accelerator's Fig. 5 size sampler
	// (accel.Accelerator.SampleSizes). It only fills Stats.InSizes and
	// Stats.OutSizes, so it never changes a run's events or draws.
	SampleSizes bool
}
