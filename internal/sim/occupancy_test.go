package sim

import "testing"

// TestOccupancyIntegrals scripts a deterministic single-server queue
// and checks the lazily-advanced integrals against hand-computed
// areas: two tasks of hold 10 submitted at t=0 mean one task queues
// for [0,10), so ∫Q dt = 10 and ∫busy dt = 20 once drained.
func TestOccupancyIntegrals(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 1, FIFO)
	k.At(0, func() {
		r.Do(10, nil)
		r.Do(10, nil)
	})
	k.Run()
	if k.Now() != 20 {
		t.Fatalf("run ended at %v, want 20", k.Now())
	}
	if got := r.QueueArea(); got != 10 {
		t.Errorf("QueueArea = %v, want 10", got)
	}
	if got := r.BusyArea(); got != 20 {
		t.Errorf("BusyArea = %v, want 20", got)
	}
	if r.BusyArea() != r.BusyTime {
		t.Errorf("at quiescence BusyArea %v != BusyTime %v", r.BusyArea(), r.BusyTime)
	}
	if r.WaitTime != 10 || r.QueuedWaitResidual() != 0 {
		t.Errorf("WaitTime = %v (want 10), residual = %v (want 0)", r.WaitTime, r.QueuedWaitResidual())
	}
}

// TestOccupancyMidRun reads the integrals between events: the lazy
// advance must account exactly up to "now" at any instant, and the
// Little identity ∫Q dt == WaitTime + residual must hold mid-run.
func TestOccupancyMidRun(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 1, FIFO)
	k.At(0, func() {
		r.Do(10, nil)
		r.Do(10, nil)
		r.Do(10, nil)
	})
	k.At(4, func() {
		// Two tasks queued over [0,4): ∫Q dt = 8; one busy server: 4.
		if got := r.QueueArea(); got != 8 {
			t.Errorf("at 4: QueueArea = %v, want 8", got)
		}
		if got := r.BusyArea(); got != 4 {
			t.Errorf("at 4: BusyArea = %v, want 4", got)
		}
		// BusyTime was charged up front for the running task.
		if r.BusyTime != 10 {
			t.Errorf("at 4: BusyTime = %v, want 10", r.BusyTime)
		}
		if got, want := r.QueueArea(), r.WaitTime+r.QueuedWaitResidual(); got != want {
			t.Errorf("at 4: Little identity broken: area %v, waits %v", got, want)
		}
	})
	k.At(15, func() {
		// Second task started at 10 (waited 10); third still queued,
		// residual 15. Area: 2 tasks x 10 + 1 task x 5 = 25.
		if got := r.QueueArea(); got != 25 {
			t.Errorf("at 15: QueueArea = %v, want 25", got)
		}
		if got, want := r.QueueArea(), r.WaitTime+r.QueuedWaitResidual(); got != want {
			t.Errorf("at 15: Little identity broken: area %v, waits %v", got, want)
		}
	})
	k.Run()
	if got := r.QueueArea(); got != 30 {
		t.Errorf("final QueueArea = %v, want 30 (10 + 20)", got)
	}
	if r.WaitTime != 30 {
		t.Errorf("final WaitTime = %v, want 30", r.WaitTime)
	}
}

// TestMaxServersTracksPeak pins the utilization bound's denominator:
// MaxServers must remember the largest configured pool across
// SetServers fault windows (shrinking never preempts, so busy can
// exceed the current Servers transiently — but never the peak).
func TestMaxServersTracksPeak(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 2, FIFO)
	if r.MaxServers() != 2 {
		t.Fatalf("MaxServers = %d, want 2", r.MaxServers())
	}
	k.At(0, func() {
		r.SetServers(6)
		for i := 0; i < 6; i++ {
			r.Do(10, nil)
		}
	})
	k.At(5, func() {
		r.SetServers(1)
		if r.InService() != 6 {
			t.Errorf("shrink preempted: %d in service, want 6 draining", r.InService())
		}
		if r.MaxServers() != 6 {
			t.Errorf("MaxServers = %d after shrink, want 6", r.MaxServers())
		}
	})
	k.Run()
	// 6 tasks x hold 10 = 60 busy server-time over 10 elapsed on a peak
	// of 6 servers: within the MaxServers bound, over the shrunk one.
	if bound := Time(r.MaxServers()) * k.Now(); r.BusyArea() > bound {
		t.Errorf("BusyArea %v exceeds peak-servers bound %v", r.BusyArea(), bound)
	}
	if r.BusyArea() != 60 || r.BusyTime != 60 {
		t.Errorf("BusyArea/BusyTime = %v/%v, want 60/60", r.BusyArea(), r.BusyTime)
	}
}

// TestKernelOnEventHook pins the observer hook: it must see every
// executed event's timestamp in execution order and must not be
// required (nil hook = no calls).
func TestKernelOnEventHook(t *testing.T) {
	k := NewKernel()
	var seen []Time
	k.OnEvent(func(at Time) { seen = append(seen, at) })
	k.At(5, func() {})
	k.At(1, func() { k.After(2, func() {}) })
	k.Run()
	want := []Time{1, 3, 5}
	if len(seen) != len(want) {
		t.Fatalf("hook saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("hook saw %v, want %v", seen, want)
		}
	}
}
