// End-of-run invariant suite: the engine knows every resource it
// built, so it — not the check package — enumerates them for the
// per-resource physics checks and adds the component-specific
// structural invariants (queue capacities, overflow bounds, fault
// windows fully reverted). check stays import-cycle-free this way:
// it depends only on sim, and the engine depends on it.
package engine

import (
	"sort"

	"accelflow/internal/check"
	"accelflow/internal/config"
	"accelflow/internal/sim"
)

// CheckedResources enumerates every sim.Resource the engine owns, in
// a deterministic order: cores, manager, central queue, per-accelerator
// PE pools and output dispatchers, the A-DMA pool and DRAM
// controllers.
func (e *Engine) CheckedResources() []*sim.Resource {
	out := []*sim.Resource{e.Cores, e.Manager, e.CentralQ}
	for _, kd := range config.AllAccelKinds() {
		out = append(out, e.Accels[kd].PEs, e.Accels[kd].OutDisp)
	}
	out = append(out, e.DMA.Resource())
	out = append(out, e.Mem.Ctrls()...)
	return out
}

// CheckEnd runs the end-of-run invariant suite against the attached
// checker. It must be called at a drained horizon (all submitted
// requests completed): several invariants — busy-time conservation,
// queue drain, zero in-flight occupancy — only hold at quiescence.
// No-op when checking is disabled.
func (e *Engine) CheckEnd(c *check.Checker) {
	if !c.Enabled() {
		return
	}
	now := e.K.Now()

	for _, r := range e.CheckedResources() {
		c.CheckResource(r, now)
		if !r.Idle() {
			c.Violationf("resource-drain", r.Name, now,
				"%d queued and %d in service at a drained horizon",
				r.QueueLen(), r.InService())
		}
	}

	for _, kd := range config.AllAccelKinds() {
		a := e.Accels[kd]
		name := kd.String()
		if free := a.QueueFree(); free < 0 {
			c.Violationf("queue-capacity", name, now,
				"input queue overcommitted: %d free slots (cap %d, occupied %d, armed %d)",
				free, a.InQueueCap(), a.InQueueLen()-a.Armed(), a.Armed())
		}
		if a.OverflowLen() > a.OverflowCap() {
			c.Violationf("queue-capacity", name, now,
				"overflow area holds %d entries, capacity %d", a.OverflowLen(), a.OverflowCap())
		}
		if a.InQueueLen() != 0 || a.OverflowLen() != 0 {
			c.Violationf("resource-drain", name, now,
				"%d input-queue slots and %d overflow entries occupied at a drained horizon",
				a.InQueueLen(), a.OverflowLen())
		}
	}

	// Fault windows are refcounted apply/revert pairs bounded by the
	// spec horizon; at a drained horizon every mechanism must have
	// reverted to its baseline.
	if e.Faults != nil {
		if e.ATM.Stall() != 0 {
			c.Violationf("fault-revert", "atm", now,
				"ATM stall %v still applied after the run", e.ATM.Stall())
		}
		if s := e.Net.LatencyScale(); s != 1 {
			c.Violationf("fault-revert", "noc", now,
				"NoC latency scale %v still applied after the run", s)
		}
		if n := e.DMA.Engines(); n != e.Cfg.ADMAEngines {
			c.Violationf("fault-revert", "adma", now,
				"A-DMA pool at %d engines, configured %d", n, e.Cfg.ADMAEngines)
		}
		if n, want := e.Manager.Servers, maxInt(1, e.Cfg.ManagerWidth); n != want {
			c.Violationf("fault-revert", "manager", now,
				"manager at %d engines, configured %d", n, want)
		}
		for _, kd := range config.AllAccelKinds() {
			if e.Accels[kd].Failed() {
				c.Violationf("fault-revert", kd.String(), now,
					"accelerator still marked failed after the run")
			}
			if n, want := e.Accels[kd].PEs.Servers, e.Cfg.PEsFor(kd); n != want {
				c.Violationf("fault-revert", kd.String(), now,
					"PE pool at %d servers, configured %d", n, want)
			}
		}
	}

	// Tenant trace accounting must return to zero once every chain has
	// completed; a leak here silently tightens the §IV-D limit.
	var leaked []int
	// order-insensitive: the leaked tenants are sorted below.
	for t, n := range e.tenantActive {
		if n != 0 {
			leaked = append(leaked, t)
		}
	}
	sort.Ints(leaked) // report in tenant order, whatever the map order
	for _, t := range leaked {
		c.Violationf("conservation", "tenants", now,
			"tenant %d shows %d active traces at a drained horizon", t, e.tenantActive[t])
	}

	if e.K.Pending() != 0 {
		c.Violationf("resource-drain", "kernel", now,
			"%d events still pending at a drained horizon", e.K.Pending())
	}
}
