package sim

import "testing"

// TestKernelAllocsPerEventSteadyState pins the kernel loop's
// steady-state allocation budget: a self-rescheduling event (the shape
// of every periodic model component) must be close to allocation-free
// once the queue's backing storage has warmed up — the concrete event
// heap must not box events the way container/heap did (one interface{}
// per Push and per Pop).
func TestKernelAllocsPerEventSteadyState(t *testing.T) {
	const events = 5000
	avg := testing.AllocsPerRun(5, func() {
		k := NewKernel()
		left := events
		var tick func()
		tick = func() {
			left--
			if left > 0 {
				k.After(Microsecond, tick)
			}
		}
		k.At(0, tick)
		k.Run()
	})
	// The whole run owns a handful of allocations (kernel, closure,
	// first heap growth); amortized per event it must be ~zero. 0.05
	// leaves 250 allocations of slack for runtime noise while failing
	// loudly if per-event boxing ever returns (which would cost >= 1).
	if perEvent := avg / events; perEvent > 0.05 {
		t.Errorf("kernel loop allocates %.3f allocs/event (%.0f per %d-event run), budget 0.05",
			perEvent, avg, events)
	}
}

// TestKernelAllocsPerEventDeepQueue is the same budget with a deep
// queue: a pre-scheduled burst of 2048 events, drained while each event
// reschedules once, so occupancy stays high across the drain. The
// budget is looser because the burst itself grows the heap.
func TestKernelAllocsPerEventDeepQueue(t *testing.T) {
	const burst = 2048
	avg := testing.AllocsPerRun(5, func() {
		k := NewKernel()
		fired := 0
		var fn func()
		fn = func() {
			fired++
			if fired <= burst {
				k.After(3*serviceScale, func() {})
			}
		}
		for i := 0; i < burst; i++ {
			k.At(Time(i)*serviceScale/7, fn)
		}
		k.Run()
	})
	if perEvent := avg / (2 * burst); perEvent > 0.5 {
		t.Errorf("deep-queue loop allocates %.3f allocs/event (%.0f per run), budget 0.5",
			perEvent, avg)
	}
}

// TestResourceAllocsPerTask pins Resource.Do's allocation budget on
// both paths. Uncontended, Do skips the Task and the queue round trip
// and pools the completion record. Contended — one server with a
// standing queue of depth tasks behind it, each completion queueing
// the next — the queued Tasks come from the resource's free list. Once
// the pools have warmed up, either loop is ~allocation-free.
func TestResourceAllocsPerTask(t *testing.T) {
	const tasks = 2000
	for _, tc := range []struct {
		name  string
		depth int
	}{
		{"uncontended", 0},
		{"contended", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			avg := testing.AllocsPerRun(5, func() {
				k := NewKernel()
				r := NewResource(k, "pe", 1, FIFO)
				left := tasks
				var next func()
				next = func() {
					left--
					if left > tc.depth {
						r.Do(Nanosecond, next)
					}
				}
				for i := 0; i <= tc.depth; i++ {
					r.Do(Nanosecond, next)
				}
				if r.QueueLen() != tc.depth {
					t.Fatalf("queue holds %d tasks, want %d", r.QueueLen(), tc.depth)
				}
				k.Run()
			})
			if perTask := avg / tasks; perTask > 0.05 {
				t.Errorf("%s Do allocates %.3f allocs/task (%.0f per %d-task run), budget 0.05",
					tc.name, perTask, avg, tasks)
			}
		})
	}
}
