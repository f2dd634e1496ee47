package check

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"accelflow/internal/sim"
)

// TestNilCheckerNoOps pins the disabled-path contract: every method on
// a nil *Checker must be a safe no-op, which is what lets call sites
// stay unconditional.
func TestNilCheckerNoOps(t *testing.T) {
	var c *Checker
	if c.Enabled() {
		t.Fatal("nil checker reports enabled")
	}
	c.Event(5)
	c.RequestAdmitted()
	c.RequestDone(true, true)
	c.CheckConservation(10, 1, 0, 0)
	c.CheckResource(nil, 10)
	c.Violationf("rule", "res", 0, "boom")
	if got := c.Violations(); got != nil {
		t.Fatalf("nil checker returned violations: %v", got)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("nil checker returned error: %v", err)
	}
	if c.Events() != 0 {
		t.Fatal("nil checker counted events")
	}
}

func TestEventMonotonicity(t *testing.T) {
	c := New()
	c.Event(1)
	c.Event(5)
	c.Event(5) // equal timestamps are legal (tie-broken by seq)
	if err := c.Err(); err != nil {
		t.Fatalf("monotone sequence flagged: %v", err)
	}
	c.Event(4)
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Rule != "monotonic-time" {
		t.Fatalf("want one monotonic-time violation, got %v", vs)
	}
	if c.Events() != 4 {
		t.Fatalf("want 4 observed events, got %d", c.Events())
	}
}

func TestViolationCapAndRendering(t *testing.T) {
	c := New()
	for i := 0; i < maxReported+40; i++ {
		c.Violationf("conservation", "", sim.Time(i), "violation %d", i)
	}
	if got := len(c.Violations()); got != maxReported {
		t.Fatalf("stored %d violations, cap is %d", got, maxReported)
	}
	var f *Failure
	if !errors.As(c.Err(), &f) {
		t.Fatalf("Err() is %T, want *Failure", c.Err())
	}
	msg := f.Error()
	if !strings.Contains(msg, "invariant violation(s)") || !strings.Contains(msg, "violation 0") {
		t.Fatalf("unexpected rendering: %s", msg)
	}
	one := Violation{Rule: "littles-law", Resource: "cores", At: 7, Detail: "off by one"}
	if s := one.Error(); !strings.Contains(s, "littles-law") || !strings.Contains(s, "cores") {
		t.Fatalf("unexpected single-violation rendering: %s", s)
	}
}

// TestFailureCountsDroppedViolations: past the stored cap, the error
// still states the run's true violation count, and its tail names how
// many it does not list.
func TestFailureCountsDroppedViolations(t *testing.T) {
	c := New()
	for i := 0; i < 70; i++ {
		c.Violationf("conservation", "", sim.Time(i), "violation %d", i)
	}
	msg := c.Err().Error()
	lines := strings.Split(msg, "\n")
	if want := "check: 70 invariant violation(s):"; lines[0] != want {
		t.Errorf("header = %q, want %q", lines[0], want)
	}
	if got, want := len(lines), 1+maxReported+1; got != want {
		t.Errorf("%d lines, want the header, %d violations and a tail", got, maxReported)
	}
	if got, want := lines[len(lines)-1], fmt.Sprintf("  ... and %d more", 70-maxReported); got != want {
		t.Errorf("tail = %q, want %q", got, want)
	}
}

func TestConservation(t *testing.T) {
	// Clean: 3 admitted, 3 completed (1 timed out, 1 fell back), and the
	// runner's independent counters agree.
	c := New()
	for i := 0; i < 3; i++ {
		c.RequestAdmitted()
	}
	c.RequestDone(false, false)
	c.RequestDone(true, false)
	c.RequestDone(false, true)
	c.CheckConservation(100, 3, 1, 1)
	if err := c.Err(); err != nil {
		t.Fatalf("clean accounting flagged: %v", err)
	}

	// In-flight at the horizon.
	c = New()
	c.RequestAdmitted()
	c.RequestAdmitted()
	c.RequestDone(false, false)
	c.CheckConservation(100, 1, 0, 0)
	wantRule(t, c, "conservation")

	// Runner disagrees with engine.
	c = New()
	c.RequestAdmitted()
	c.RequestDone(false, false)
	c.CheckConservation(100, 2, 0, 0)
	wantRule(t, c, "conservation")

	// Outcome counters disagree.
	c = New()
	c.RequestAdmitted()
	c.RequestDone(true, false)
	c.CheckConservation(100, 1, 0, 0)
	wantRule(t, c, "conservation")
}

func wantRule(t *testing.T, c *Checker, rule string) {
	t.Helper()
	for _, v := range c.Violations() {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("no %q violation recorded; got %v", rule, c.Violations())
}

// TestCheckResourceClean runs a real queueing scenario through a
// sim.Resource and asserts the full per-resource suite passes.
func TestCheckResourceClean(t *testing.T) {
	k := sim.NewKernel()
	r := sim.NewResource(k, "pe", 2, sim.FIFO)
	for i := 0; i < 6; i++ {
		at := sim.Time(i) * 3 * sim.Nanosecond
		k.At(at, func() { r.Do(10*sim.Nanosecond, nil) })
	}
	k.Run()
	c := New()
	c.CheckResource(r, k.Now())
	if err := c.Err(); err != nil {
		t.Fatalf("clean resource flagged: %v", err)
	}
}

// TestBrokenResourceModelCaught is the deliberately broken resource
// model: a real resource whose accounting is corrupted after the run,
// standing in for a model with a utilization/accounting bug. The
// checker must catch each class of corruption.
func TestBrokenResourceModelCaught(t *testing.T) {
	run := func() (*sim.Kernel, *sim.Resource) {
		k := sim.NewKernel()
		r := sim.NewResource(k, "pe", 1, sim.FIFO)
		for i := 0; i < 4; i++ {
			at := sim.Time(i) * 2 * sim.Nanosecond
			k.At(at, func() { r.Do(8*sim.Nanosecond, nil) })
		}
		k.Run()
		return k, r
	}

	// Utilization accounting bug: the model double-charges busy time, so
	// the charged total both disagrees with the occupancy integral and
	// exceeds servers x elapsed.
	k, r := run()
	r.BusyTime *= 2
	c := New()
	c.CheckResource(r, k.Now())
	wantRule(t, c, "busy-accounting")
	wantRule(t, c, "utilization")

	// Wait-time accounting bug: lost queueing delay breaks the exact
	// Little's-law identity ∫Q dt == ΣW.
	k, r = run()
	r.WaitTime -= 1 * sim.Nanosecond
	c = New()
	c.CheckResource(r, k.Now())
	wantRule(t, c, "littles-law")
}

// TestLittlesLawHoldsMidRun pins that the exact-integer identity holds
// at arbitrary instants, not just at quiescence.
func TestLittlesLawHoldsMidRun(t *testing.T) {
	k := sim.NewKernel()
	r := sim.NewResource(k, "q", 1, sim.FIFO)
	k.At(0, func() {
		r.Do(10*sim.Nanosecond, nil)
		r.Do(10*sim.Nanosecond, nil)
		r.Do(10*sim.Nanosecond, nil)
	})
	for _, at := range []sim.Time{5 * sim.Nanosecond, 15 * sim.Nanosecond, 25 * sim.Nanosecond} {
		k.At(at, func() {
			if area, want := r.QueueArea(), r.WaitTime+r.QueuedWaitResidual(); area != want {
				t.Errorf("at %v: ∫Q dt = %v, accrued waits %v", k.Now(), area, want)
			}
		})
	}
	k.Run()
}
