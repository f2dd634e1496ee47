package sim

// Hooks is the kernel's single instrumentation surface. It replaces
// the hook points that accreted on Kernel one field at a time — the
// per-event observer and periodic samplers registered through Every —
// with one value installed through one call (SetHooks). A sharded run
// installs hooks per domain, through Sharded.Domain(i).SetHooks.
//
// All hook callbacks must only read simulation state: a mutating hook
// would change results, and determinism (byte-identical at any worker
// count) depends on hooks being pure observers.
type Hooks struct {
	// OnEvent, when non-nil, observes every executed event's timestamp
	// just before its callback runs (the invariant checker uses it to
	// verify event-time monotonicity). Install it before the run
	// starts: the run loop reads OnEvent once, when it starts, so a
	// hook installed mid-run from inside an event callback is not
	// guaranteed to be seen.
	OnEvent func(at Time)

	// Periodic samplers armed when the hooks are installed. Each is
	// scheduled through the kernel's self-terminating tick (see
	// Kernel.Every): the tick reschedules itself only while other
	// events are pending, so a sampler cannot keep a finished
	// simulation alive. Entries arm in slice order, which fixes their
	// event-sequence positions and keeps runs deterministic.
	Periodic []Periodic
}

// Periodic is one repeating sampler in Hooks.
type Periodic struct {
	Every Time
	Fn    func()
}

// checkEvery is the cooperative-cancellation poll cadence: RunCtx and
// Sharded.RunCtx check ctx.Err() once per checkEvery executed events.
const checkEvery = 4096
