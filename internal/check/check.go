// Package check is the runtime invariant-checking subsystem: a
// nil-safe Checker that the engine, kernel, and workload runner feed
// with read-only observations, verifying the queueing physics the
// AccelFlow results rest on — event-time monotonicity, request
// conservation, per-resource utilization bounds, queue-length
// non-negativity, and Little's law — plus the closed-form M/D/1 and
// M/M/k oracles (oracle.go) and the seed-derived config-space
// generator (gen.go) behind the property harness.
//
// Like the obs package, every Checker method no-ops on a nil
// receiver, so the disabled path costs one nil check per call site
// and a run without a checker is bit-identical to one before the
// package existed. Checkers only read counters and timestamps; they
// never touch RNG streams or schedule events, so an attached checker
// cannot change simulation results either.
package check

import (
	"fmt"
	"strings"

	"accelflow/internal/sim"
)

// Violation is one detected invariant breach.
type Violation struct {
	// Rule names the invariant, e.g. "monotonic-time", "littles-law".
	Rule string
	// Resource names the component the rule was evaluated on (empty
	// for run-global rules like conservation).
	Resource string
	// At is the simulated time of detection.
	At sim.Time
	// Detail is a human-readable account of the breach.
	Detail string
}

// Error renders the violation; Violation satisfies the error
// interface so single breaches can propagate directly.
func (v Violation) Error() string {
	if v.Resource == "" {
		return fmt.Sprintf("check: %s at %v: %s", v.Rule, v.At, v.Detail)
	}
	return fmt.Sprintf("check: %s on %s at %v: %s", v.Rule, v.Resource, v.At, v.Detail)
}

// Failure wraps all violations of one run into a single error.
type Failure struct {
	// Violations holds the first maxReported breaches; Dropped counts
	// the rest.
	Violations []Violation
	Dropped    uint64
}

func (f *Failure) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d invariant violation(s):", uint64(len(f.Violations))+f.Dropped)
	for _, v := range f.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.Error())
	}
	if f.Dropped > 0 {
		fmt.Fprintf(&b, "\n  ... and %d more", f.Dropped)
	}
	return b.String()
}

// maxReported caps the stored violation list, so a systematically
// broken model cannot balloon memory.
const maxReported = 64

// Checker accumulates runtime observations and verifies invariants.
// The zero value is not usable; build with New. A nil *Checker is the
// disabled state: every method no-ops.
type Checker struct {
	violations []Violation
	dropped    uint64

	// Monotonicity state.
	lastEvent sim.Time
	events    uint64

	// Conservation counters fed by the engine.
	admitted  uint64
	completed uint64
	timedOut  uint64
	fellBack  uint64
}

// New returns an enabled checker.
func New() *Checker { return &Checker{} }

// Enabled reports whether the checker records (false on nil).
func (c *Checker) Enabled() bool { return c != nil }

// Violationf records one violation. Exported so component-specific
// end-of-run checks (engine.CheckEnd) can report through the same
// structured channel.
func (c *Checker) Violationf(rule, resource string, at sim.Time, format string, args ...interface{}) {
	if c == nil {
		return
	}
	if len(c.violations) >= maxReported {
		c.dropped++
		return
	}
	c.violations = append(c.violations, Violation{
		Rule: rule, Resource: resource, At: at,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Violations returns the recorded breaches (nil-safe, empty when none).
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	return c.violations
}

// Err returns nil when no invariant was violated, else a *Failure
// wrapping every recorded violation.
func (c *Checker) Err() error {
	if c == nil || len(c.violations) == 0 {
		return nil
	}
	return &Failure{Violations: c.violations, Dropped: c.dropped}
}

// Event is the kernel hook (sim.Kernel.OnEvent): it verifies that
// executed event timestamps never move backwards. The kernel's At
// already panics on scheduling into the past; this guards the
// execution order itself, which is what causality rests on.
func (c *Checker) Event(at sim.Time) {
	if c == nil {
		return
	}
	if at < c.lastEvent {
		c.Violationf("monotonic-time", "kernel", at,
			"event at %v executed after event at %v", at, c.lastEvent)
	}
	c.lastEvent = at
	c.events++
}

// Events reports how many kernel events the checker observed.
func (c *Checker) Events() uint64 {
	if c == nil {
		return 0
	}
	return c.events
}

// RequestAdmitted counts one request entering the engine.
func (c *Checker) RequestAdmitted() {
	if c == nil {
		return
	}
	c.admitted++
}

// RequestDone counts one request reaching its completion callback.
// Timed-out and fallback requests still complete in this engine (the
// recovery path finishes them on the CPU), so they are subsets of the
// completed count, not alternatives to it.
func (c *Checker) RequestDone(timedOut, fellBack bool) {
	if c == nil {
		return
	}
	c.completed++
	if timedOut {
		c.timedOut++
	}
	if fellBack {
		c.fellBack++
	}
}

// CheckConservation verifies request conservation at the run horizon
// against an independent accounting (the workload runner's result
// counters): admitted = completed + in-flight, with zero in flight at
// a drained horizon, and the timed-out/fallback subsets agreeing.
func (c *Checker) CheckConservation(at sim.Time, completed, timedOut, fellBack uint64) {
	if c == nil {
		return
	}
	if c.completed > c.admitted {
		c.Violationf("conservation", "", at,
			"completed %d requests but only admitted %d", c.completed, c.admitted)
	}
	if inflight := c.admitted - c.completed; c.completed <= c.admitted && inflight != 0 {
		c.Violationf("conservation", "", at,
			"%d request(s) admitted but still in flight at a drained horizon (admitted %d, completed %d)",
			inflight, c.admitted, c.completed)
	}
	if c.completed != completed {
		c.Violationf("conservation", "", at,
			"engine completed %d requests, runner recorded %d", c.completed, completed)
	}
	if c.timedOut != timedOut || c.fellBack != fellBack {
		c.Violationf("conservation", "", at,
			"outcome counters disagree: engine timedOut=%d fellBack=%d, runner timedOut=%d fellBack=%d",
			c.timedOut, c.fellBack, timedOut, fellBack)
	}
	if c.timedOut > c.completed || c.fellBack > c.completed {
		c.Violationf("conservation", "", at,
			"outcome subsets exceed completions: timedOut=%d fellBack=%d completed=%d",
			c.timedOut, c.fellBack, c.completed)
	}
}

// CheckResource verifies one sim.Resource's queueing physics at the
// end of a run (elapsed = the kernel's final time):
//
//   - queue-length non-negativity and drain (a drained kernel left
//     work behind only if accounting leaked),
//   - busy-time conservation: the up-front BusyTime charge must equal
//     the real occupancy integral once every hold has elapsed,
//   - utilization <= 1: busy server-time cannot exceed servers x
//     elapsed (using the run's maximum server count, so mid-run
//     resizes — fault windows, the autoscaler — keep the bound valid),
//   - Little's law in exact integer form: ∫Q(t)dt == ΣW, i.e.
//     QueueArea == WaitTime + QueuedWaitResidual, which is L = λW
//     multiplied through by elapsed with zero tolerance.
func (c *Checker) CheckResource(r *sim.Resource, elapsed sim.Time) {
	if c == nil || r == nil {
		return
	}
	if r.QueueLen() < 0 {
		c.Violationf("queue-nonnegative", r.Name, elapsed,
			"queue length %d is negative", r.QueueLen())
	}
	if r.InService() < 0 {
		c.Violationf("queue-nonnegative", r.Name, elapsed,
			"in-service count %d is negative", r.InService())
	}
	if r.InService() > r.MaxServers() {
		c.Violationf("utilization", r.Name, elapsed,
			"%d tasks in service on at most %d servers", r.InService(), r.MaxServers())
	}
	if r.Idle() {
		// Busy-time conservation only holds at quiescence: BusyTime is
		// charged up front, BusyArea accrues in real time.
		if r.BusyTime != r.BusyArea() {
			c.Violationf("busy-accounting", r.Name, elapsed,
				"charged busy-time %v != occupied server-time %v at quiescence",
				r.BusyTime, r.BusyArea())
		}
	}
	if elapsed > 0 {
		bound := sim.Time(r.MaxServers()) * elapsed
		if r.BusyArea() > bound {
			c.Violationf("utilization", r.Name, elapsed,
				"occupied server-time %v exceeds %d server(s) x %v elapsed",
				r.BusyArea(), r.MaxServers(), elapsed)
		}
		// The up-front BusyTime charge can run ahead of wall clock while
		// holds are in flight, but once the resource is idle every charge
		// has elapsed, so utilization > 1 there is an accounting bug.
		if r.Idle() && r.BusyTime > bound {
			c.Violationf("utilization", r.Name, elapsed,
				"charged busy-time %v exceeds %d server(s) x %v elapsed",
				r.BusyTime, r.MaxServers(), elapsed)
		}
	}
	if area, want := r.QueueArea(), r.WaitTime+r.QueuedWaitResidual(); area != want {
		c.Violationf("littles-law", r.Name, elapsed,
			"∫Q dt = %v but accrued waits sum to %v (L=λW violated)", area, want)
	}
}
