package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Nanosecond, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
		{12 * Nanosecond, "12.000ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromMicros(1.5) != 1500*Nanosecond {
		t.Errorf("FromMicros(1.5) = %v", FromMicros(1.5))
	}
	if FromNanos(2.5) != 2500*Picosecond {
		t.Errorf("FromNanos(2.5) = %v", FromNanos(2.5))
	}
	if (3 * Microsecond).Micros() != 3.0 {
		t.Errorf("Micros() = %v", (3 * Microsecond).Micros())
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Errorf("Seconds() = %v", (2 * Second).Seconds())
	}
	if (5 * Nanosecond).Nanos() != 5.0 {
		t.Errorf("Nanos() = %v", (5 * Nanosecond).Nanos())
	}
}

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(30*Nanosecond, func() { order = append(order, 3) })
	k.At(10*Nanosecond, func() { order = append(order, 1) })
	k.At(20*Nanosecond, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if k.Now() != 30*Nanosecond {
		t.Errorf("clock = %v, want 30ns", k.Now())
	}
}

func TestKernelTieBreakBySchedulingOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5*Nanosecond, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated at index %d: %v", i, order)
		}
	}
}

func TestKernelAfterAndNesting(t *testing.T) {
	k := NewKernel()
	var hit Time
	k.After(10*Nanosecond, func() {
		k.After(5*Nanosecond, func() { hit = k.Now() })
	})
	k.Run()
	if hit != 15*Nanosecond {
		t.Errorf("nested event at %v, want 15ns", hit)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.At(10*Nanosecond, func() { ran++ })
	k.At(20*Nanosecond, func() { ran++ })
	k.At(30*Nanosecond, func() { ran++ })
	k.RunUntil(20 * Nanosecond)
	if ran != 2 {
		t.Errorf("ran %d events, want 2", ran)
	}
	if k.Pending() != 1 {
		t.Errorf("pending = %d, want 1", k.Pending())
	}
	k.Run()
	if ran != 3 {
		t.Errorf("ran %d events after Run, want 3", ran)
	}
}

// TestKernelEverySelfTerminates pins Every's liveness rule: a single
// ticker outlives the last real event by exactly one final tick, and
// two tickers must not count each other's queued ticks as pending
// work — before the queuedTicks exclusion, any two periodic samplers
// on one kernel (e.g. the observability sampler plus the controller
// tick) sustained each other forever.
func TestKernelEverySelfTerminates(t *testing.T) {
	k := NewKernel()
	ticksA, ticksB := 0, 0
	k.Every(10*Nanosecond, func() { ticksA++ })
	k.Every(15*Nanosecond, func() { ticksB++ })
	k.At(100*Nanosecond, func() {})
	// Bounded well past the last real event: a livelock stops at the
	// bound and fails the Pending check instead of hanging.
	k.RunUntil(Microsecond)
	// A's tick at 100ns runs after the real event there (same
	// timestamp, later scheduling order), observes the final state,
	// and stops: 10 ticks. B ticks at 15..90ns plus one final
	// observation at 105ns: 7.
	if ticksA != 10 || ticksB != 7 {
		t.Errorf("ticks = %d/%d, want 10/7", ticksA, ticksB)
	}
	if k.Pending() != 0 {
		t.Errorf("pending = %d after Run, want 0", k.Pending())
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := NewKernel()
	k.At(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5*Nanosecond, func() {})
	})
	k.Run()
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	k.After(-1, func() {})
}

// Property: for any set of non-negative delays, Run executes all events
// and the clock ends at the max delay.
func TestKernelPropertyAllEventsRun(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		ran := 0
		var max Time
		for _, d := range delays {
			dt := Time(d) * Nanosecond
			if dt > max {
				max = dt
			}
			k.After(dt, func() { ran++ })
		}
		k.Run()
		return ran == len(delays) && (len(delays) == 0 || k.Now() == max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
