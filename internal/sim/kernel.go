// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event heap, and multi-server queueing resources
// with pluggable service disciplines. All AccelFlow component models are
// built on top of this kernel.
package sim

import (
	"context"
	"fmt"
	"math"
)

// Time is simulated time in integer picoseconds. Picosecond resolution
// lets cycle times of non-integral nanoseconds (e.g. 2.4 GHz -> 416.6 ps)
// be represented without floating-point drift.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a Time in the most readable unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Micros returns the time as a float64 number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns the time as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromMicros converts a float64 microsecond count to a Time.
func FromMicros(us float64) Time { return Time(math.Round(us * float64(Microsecond))) }

// FromNanos converts a float64 nanosecond count to a Time.
func FromNanos(ns float64) Time { return Time(math.Round(ns * float64(Nanosecond))) }

// event is a scheduled callback. seq breaks ties so that events scheduled
// first at the same instant run first, keeping the simulation
// deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// Kernel is the event loop. It is not safe for concurrent use: a
// simulation is a single-threaded, deterministic program. (A fleet
// runs one Kernel per replica, each on one goroutine at a time; see
// workload.FleetSpec.)
type Kernel struct {
	now       Time
	seq       uint64
	events    eventQueue
	processed uint64

	// onEvent is the installed per-event observer (OnEvent).
	onEvent func(at Time)

	// queuedTicks counts Every ticks currently in the event queue, so
	// a ticker's liveness check can exclude other tickers' pending
	// ticks (see Every).
	queuedTicks int
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Processed returns the number of executed events.
func (k *Kernel) Processed() uint64 { return k.processed }

// OnEvent installs fn as the per-event observer, replacing any earlier
// one: it sees every executed event's timestamp just before the
// event's callback runs (the invariant checker uses it to verify
// event-time monotonicity). fn must only read simulation state, or
// determinism is lost. Install it before the run starts: the run loop
// reads the observer once, when it starts.
func (k *Kernel) OnEvent(fn func(at Time)) { k.onEvent = fn }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it indicates a modeling bug rather than a recoverable error.
func (k *Kernel) At(t Time, fn func()) {
	k.seq++
	k.AtSeq(t, k.seq, fn)
}

// Reserve sets aside n consecutive scheduling sequence numbers and
// returns the first. A stimulus source that knows its whole schedule
// up front (arrivals, fault windows) reserves one number per event and
// books each event with AtSeq only when its predecessor fires, so the
// queue holds the source's next event instead of its whole future.
// Every event keeps the (at, seq) key an eager At loop at the
// reservation point would have given it, so pop order — and every
// result — is the same as scheduling everything up front.
func (k *Kernel) Reserve(n int) uint64 {
	first := k.seq + 1
	k.seq += uint64(n)
	return first
}

// AtSeq schedules fn at absolute time t under a sequence number taken
// from Reserve. Like At, scheduling in the past panics, and so does a
// sequence number that was never reserved.
func (k *Kernel) AtSeq(t Time, seq uint64, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if seq > k.seq {
		panic(fmt.Sprintf("sim: sequence number %d was never reserved", seq))
	}
	k.events.push(event{at: t, seq: seq, fn: fn})
}

// After schedules fn to run d after the current time. A negative
// delay, or one that overflows the clock, panics. Past that check it
// books like At without At's checks, which cannot fail here: the time
// is not in the past, and the sequence number it takes is reserved.
func (k *Kernel) After(d Time, fn func()) {
	t := k.now + d
	if t < k.now {
		panic(fmt.Sprintf("sim: delay %v out of range at %v", d, k.now))
	}
	k.seq++
	k.events.push(event{at: t, seq: k.seq, fn: fn})
}

// checkEvery is the cooperative-cancellation poll cadence: the run
// loop checks ctx.Err() once per checkEvery executed events.
const checkEvery = 4096

// Run executes events until the heap is empty.
func (k *Kernel) Run() { k.RunUntil(math.MaxInt64) }

// RunUntil executes events with timestamps <= deadline, leaving later
// events queued. The clock ends at the last executed event (or deadline
// if nothing ran beyond it).
func (k *Kernel) RunUntil(deadline Time) { k.run(context.Background(), deadline) }

// RunCtx executes events until the heap is empty or ctx is cancelled,
// and returns ctx's error in the latter case (nil when the heap
// drained). Cancellation is cooperative: ctx is polled once up front —
// an already-cancelled context runs zero events — and then every
// checkEvery (4096) executed events, so the hot loop pays one cheap
// Err() call per batch. Events are never interrupted mid-callback; the
// kernel always stops on an event boundary, leaving the remaining
// events queued. A simulation abandoned this way is in a consistent but
// incomplete state — callers discard it rather than reading partial
// metrics.
func (k *Kernel) RunCtx(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return k.run(ctx, math.MaxInt64)
}

// run is the kernel's one event loop: it executes events with
// timestamps <= last, in (at, seq) order, polling ctx once per
// checkEvery events it runs. Each event runs in place at the heap
// root, which its callback's first booking overwrites (see
// eventQueue); between events no root is running, so minAt sees a
// plain heap. A callback that panics leaves its root running: such a
// kernel is discarded, never resumed.
func (k *Kernel) run(ctx context.Context, last Time) error {
	onEvent := k.onEvent
	batch := 0
	for k.events.Len() > 0 && k.events.minAt() <= last {
		if batch++; batch >= checkEvery {
			batch = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		e := k.events.start()
		k.now = e.at
		k.processed++
		if onEvent != nil {
			onEvent(e.at)
		}
		e.fn()
		k.events.finish()
	}
	return nil
}

// Every schedules fn to run repeatedly with period d, starting at
// now+d. The tick reschedules itself only while non-tick events are
// pending, so periodic samplers cannot keep an otherwise-finished
// simulation alive: once the last real event has run, each ticker
// fires once more (observing the final state) and stops. Other
// tickers' queued ticks deliberately do not count as pending work —
// counting them would let two samplers (say the observability sampler
// and the controller tick) sustain each other forever. This is sound
// for harnesses whose every stimulus source keeps its next event queued
// until the source is exhausted (see Reserve): "some stimulus remains"
// holds exactly when "some source's next event is queued", so the
// non-tick pending count only reaches zero when the run is truly over.
func (k *Kernel) Every(d Time, fn func()) {
	if d <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", d))
	}
	var tick func()
	tick = func() {
		k.queuedTicks--
		fn()
		if k.events.Len() > k.queuedTicks {
			k.queuedTicks++
			k.After(d, tick)
		}
	}
	k.queuedTicks++
	k.After(d, tick)
}

// Pending reports the number of queued events. Inside a callback the
// running event no longer counts.
func (k *Kernel) Pending() int { return k.events.Len() }
