package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// booker is the scheduling surface a model uses from inside callbacks,
// implemented by Kernel and by refKernel so one event program can drive
// both.
type booker interface {
	Now() Time
	At(t Time, fn func())
	AtSeq(t Time, seq uint64, fn func())
	After(d Time, fn func())
	Reserve(n int) uint64
	Every(d Time, fn func())
	Pending() int
}

// refKernel is the reference executor: the dispatch contract written
// the plain way, popping each event from a container/heap before its
// callback runs, so Pending inside a callback counts exactly the events
// not yet run. Every keeps the kernel's documented liveness rule.
type refKernel struct {
	now       Time
	seq       uint64
	h         refHeap
	processed uint64
	ticks     int
}

func (r *refKernel) Now() Time    { return r.now }
func (r *refKernel) Pending() int { return r.h.Len() }

func (r *refKernel) At(t Time, fn func()) {
	r.seq++
	r.AtSeq(t, r.seq, fn)
}

func (r *refKernel) AtSeq(t Time, seq uint64, fn func()) {
	heap.Push(&r.h, event{at: t, seq: seq, fn: fn})
}

func (r *refKernel) After(d Time, fn func()) { r.At(r.now+d, fn) }

func (r *refKernel) Reserve(n int) uint64 {
	first := r.seq + 1
	r.seq += uint64(n)
	return first
}

func (r *refKernel) Every(d Time, fn func()) {
	var tick func()
	tick = func() {
		r.ticks--
		fn()
		if r.h.Len() > r.ticks {
			r.ticks++
			r.After(d, tick)
		}
	}
	r.ticks++
	r.After(d, tick)
}

func (r *refKernel) RunUntil(last Time) {
	for r.h.Len() > 0 && r.h[0].at <= last {
		e := heap.Pop(&r.h).(event)
		r.now = e.at
		r.processed++
		e.fn()
	}
}

// dispatchStep is one executed event as its callback saw it.
type dispatchStep struct {
	at     Time
	label  int // booking order; tickers are -1 and -2
	before int // Pending() on entry
	after  int // Pending() once the callback has booked its successors
}

// dispatchHorizon bounds every program run: a correct run drains long
// before it, and a broken liveness rule stops there instead of hanging.
const dispatchHorizon = Time(1) << 36

// runDispatchProgram drives b through a seed-derived event program and
// returns the executed steps. Each callback books 0, 1 or several
// successors: same-instant events, later events, and AtSeq bookings
// under numbers reserved earlier — lower than the seq of events queued
// since — alongside two Every tickers. Every decision is drawn from one
// RNG in execution order, so two executors agree on the whole program
// exactly as long as they agree on the order.
func runDispatchProgram(b booker, runUntil func(Time), seed int64, shape uint8, budget int) []dispatchStep {
	r := rand.New(rand.NewSource(seed))
	delta := func() Time {
		switch shape % 3 {
		case 0: // a coarse grid: heavy (at, seq) tie-breaking
			return Time(r.Intn(3)) * (serviceScale / 4)
		case 1: // spread over 64 service times
			return Time(r.Int63n(64 * int64(serviceScale)))
		}
		if r.Intn(2) == 0 { // half at the current instant
			return 0
		}
		return Time(r.Int63n(4 * int64(serviceScale)))
	}
	var steps []dispatchStep
	var reserved []uint64
	labels := 0
	var fire func(label int) func()
	book := func() {
		labels++
		fn := fire(labels)
		switch r.Intn(5) {
		case 0:
			b.At(b.Now(), fn)
		case 1:
			b.After(delta(), fn)
		case 2:
			if r.Intn(3) == 0 {
				n := 1 + r.Intn(4)
				first := b.Reserve(n)
				for i := range n {
					reserved = append(reserved, first+uint64(i))
				}
			}
			if len(reserved) > 0 {
				i := r.Intn(len(reserved))
				seq := reserved[i]
				reserved = append(reserved[:i], reserved[i+1:]...)
				b.AtSeq(b.Now()+delta(), seq, fn)
				return
			}
			fallthrough
		default:
			b.At(b.Now()+delta(), fn)
		}
	}
	fire = func(label int) func() {
		return func() {
			steps = append(steps, dispatchStep{at: b.Now(), label: label, before: b.Pending()})
			if labels < budget {
				n := 1
				switch d := r.Intn(8); {
				case d < 2:
					n = 0
				case d >= 6:
					n = 2 + r.Intn(3)
				}
				for ; n > 0; n-- {
					book()
				}
			}
			steps[len(steps)-1].after = b.Pending()
		}
	}
	tick := func(label int) func() {
		return func() {
			steps = append(steps, dispatchStep{at: b.Now(), label: label, before: b.Pending(), after: b.Pending()})
		}
	}
	b.Every(serviceScale*Time(3+r.Intn(8)), tick(-1))
	for n := 1 + r.Intn(6); n > 0; n-- {
		book()
	}
	b.Every(serviceScale*Time(3+r.Intn(8)), tick(-2))
	runUntil(dispatchHorizon)
	return steps
}

// checkDispatch runs one program on a Kernel and on the reference and
// fails on the first difference in what ran, in what Pending reported
// inside a callback, or in the final counts.
func checkDispatch(t *testing.T, seed int64, shape uint8, budget int) {
	t.Helper()
	k := NewKernel()
	got := runDispatchProgram(k, k.RunUntil, seed, shape, budget)
	ref := &refKernel{}
	want := runDispatchProgram(ref, ref.RunUntil, seed, shape, budget)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("seed %d shape %d: event %d ran %+v, reference %+v", seed, shape, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("seed %d shape %d: %d events ran, reference %d", seed, shape, len(got), len(want))
	}
	if k.Processed() != ref.processed || k.Pending() != ref.Pending() || k.Now() != ref.now {
		t.Fatalf("seed %d shape %d: processed/pending/now %d/%d/%v, reference %d/%d/%v", seed, shape,
			k.Processed(), k.Pending(), k.Now(), ref.processed, ref.Pending(), ref.now)
	}
	if k.Pending() != 0 {
		t.Fatalf("seed %d shape %d: %d events left at the horizon", seed, shape, k.Pending())
	}
}

// TestKernelDispatchDifferential checks the kernel's dispatch contract
// against the container/heap reference: the executed (at, label)
// sequence, Pending inside every callback, and the final Processed,
// Pending and clock must all match over seed-derived programs in every
// delta shape.
func TestKernelDispatchDifferential(t *testing.T) {
	for shape := uint8(0); shape < 3; shape++ {
		for seed := int64(1); seed <= 20; seed++ {
			checkDispatch(t, seed, shape, 400)
		}
	}
}

// FuzzKernelOrder explores the same differential over arbitrary seeds,
// shapes and program lengths.
func FuzzKernelOrder(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(50))
	f.Add(int64(7), uint8(1), uint16(400))
	f.Add(int64(42), uint8(2), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, budget uint16) {
		checkDispatch(t, seed, shape, int(budget%2000))
	})
}
