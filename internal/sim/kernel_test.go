package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
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

// TestKernelRunBoundaries pins the edges of the kernel's one event
// loop as each entry point drives it: RunUntil's deadline is
// inclusive, and an already-cancelled RunCtx runs nothing.
func TestKernelRunBoundaries(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name        string
		run         func(k *Kernel) error
		wantRan     uint64
		wantPending int
		wantErr     error
	}{
		{"RunUntil runs an event at the deadline", func(k *Kernel) error { k.RunUntil(10 * Nanosecond); return nil }, 2, 1, nil},
		{"cancelled RunCtx runs zero events", func(k *Kernel) error { return k.RunCtx(cancelled) }, 0, 3, context.Canceled},
		{"RunCtx drains", func(k *Kernel) error { return k.RunCtx(context.Background()) }, 3, 0, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := NewKernel()
			for _, at := range []Time{9 * Nanosecond, 10 * Nanosecond, 11 * Nanosecond} {
				k.At(at, func() {})
			}
			if err := c.run(k); !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			if k.Processed() != c.wantRan || k.Pending() != c.wantPending {
				t.Errorf("ran %d with %d pending, want %d with %d pending",
					k.Processed(), k.Pending(), c.wantRan, c.wantPending)
			}
		})
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

	// A lazy source keeps only its next event queued, with gaps far
	// longer than the tick period. The ticker must ride out every gap
	// (the source's next event is queued throughout) and stop right
	// after the source's last event.
	k = NewKernel()
	times := []Time{100 * Nanosecond, 400 * Nanosecond, 1000 * Nanosecond}
	seq := k.Reserve(len(times))
	next, fired := 0, 0
	var arrive func()
	arrive = func() {
		fired++
		if next++; next < len(times) {
			k.AtSeq(times[next], seq+uint64(next), arrive)
		}
	}
	k.AtSeq(times[0], seq, arrive)
	ticks := 0
	var lastTick Time
	k.Every(50*Nanosecond, func() { ticks++; lastTick = k.Now() })
	k.RunUntil(10 * Microsecond)
	// Ticks at 50, 100, ..., 1000ns: the one at 1000ns runs after the
	// last arrival (reserved earlier, so lower seq) and stops.
	if fired != 3 || ticks != 20 || lastTick != 1000*Nanosecond {
		t.Errorf("lazy source: fired %d, ticks %d, last tick %v; want 3, 20, 1us", fired, ticks, lastTick)
	}
	if k.Pending() != 0 {
		t.Errorf("lazy source: pending = %d after Run, want 0", k.Pending())
	}
}

// TestKernelReserveMatchesEagerAt pins the scheduling rule stimulus
// sources rely on: a Reserve/AtSeq chain, where each event books its
// successor when it fires, runs in exactly the (at, seq) order and
// with exactly the Processed count of the eager At loop it replaces —
// including same-instant ties against events scheduled before and
// after the reservation, and against events the chain's callbacks
// schedule themselves.
func TestKernelReserveMatchesEagerAt(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	chain := make([]Time, 200)
	var at Time
	for i := range chain {
		at += Time(r.Intn(3)) * 10 * Nanosecond // many zero gaps: chain ties
		chain[i] = at
	}
	others := make([]Time, 100) // half before the reservation, half after
	for i := range others {
		others[i] = chain[r.Intn(len(chain))] // same instants as chain events
	}

	run := func(lazy bool) ([]string, uint64) {
		k := NewKernel()
		var order []string
		log := func(label string, i int) func() {
			return func() { order = append(order, fmt.Sprintf("%s%d@%d", label, i, k.Now())) }
		}
		for i, t := range others[:50] {
			k.At(t, log("before", i))
		}
		fire := func(i int) {
			log("chain", i)()
			k.After(0, log("echo", i)) // a callback's own event at the same instant
		}
		if lazy {
			seq := k.Reserve(len(chain))
			next := 0
			var arrive func()
			arrive = func() {
				i := next
				if next++; next < len(chain) {
					k.AtSeq(chain[next], seq+uint64(next), arrive)
				}
				fire(i)
			}
			k.AtSeq(chain[0], seq, arrive)
		} else {
			for i, t := range chain {
				k.At(t, func() { fire(i) })
			}
		}
		for i, t := range others[50:] {
			k.At(t, log("after", i))
		}
		k.Run()
		return order, k.Processed()
	}

	eager, eagerN := run(false)
	lazy, lazyN := run(true)
	if eagerN != lazyN {
		t.Fatalf("Processed: lazy %d, eager %d", lazyN, eagerN)
	}
	if want := uint64(len(others) + 2*len(chain)); lazyN != want {
		t.Fatalf("Processed = %d, want %d", lazyN, want)
	}
	for i := range eager {
		if lazy[i] != eager[i] {
			t.Fatalf("event %d: lazy ran %s, eager ran %s", i, lazy[i], eager[i])
		}
	}
}

func TestKernelAtSeqPanics(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	k := NewKernel()
	seq := k.Reserve(1)
	mustPanic("an unreserved sequence number", func() { k.AtSeq(0, seq+1, func() {}) })
	k.At(10*Nanosecond, func() {
		mustPanic("AtSeq in the past", func() { k.AtSeq(5*Nanosecond, seq, func() {}) })
	})
	k.Run()
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

// A delay that overflows the clock would book an event in the past.
func TestKernelOverflowingDelayPanics(t *testing.T) {
	k := NewKernel()
	k.At(Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("overflowing delay did not panic")
			}
		}()
		k.After(math.MaxInt64, func() {})
	})
	k.Run()
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
