package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestResourceSingleServerSerializes(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "srv", 1, FIFO)
	var ends []Time
	for i := 0; i < 3; i++ {
		r.Do(10*Nanosecond, func() { ends = append(ends, k.Now()) })
	}
	k.Run()
	want := []Time{10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond}
	for i, w := range want {
		if ends[i] != w {
			t.Errorf("task %d ended at %v, want %v", i, ends[i], w)
		}
	}
}

func TestResourceMultiServerParallelism(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "srv", 3, FIFO)
	var ends []Time
	for i := 0; i < 3; i++ {
		r.Do(10*Nanosecond, func() { ends = append(ends, k.Now()) })
	}
	k.Run()
	for i, e := range ends {
		if e != 10*Nanosecond {
			t.Errorf("task %d ended at %v, want 10ns (parallel)", i, e)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "srv", 1, FIFO)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.Do(Nanosecond, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestResourceEDFDiscipline(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "srv", 1, EDF)
	var order []Time
	r.Submit(&Task{Hold: 10 * Nanosecond})
	deadlines := []Time{300 * Nanosecond, 100 * Nanosecond, 200 * Nanosecond}
	for _, d := range deadlines {
		d := d
		r.Submit(&Task{Hold: Nanosecond, Deadline: d, Done: func() { order = append(order, d) }})
	}
	k.Run()
	want := []Time{100 * Nanosecond, 200 * Nanosecond, 300 * Nanosecond}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("EDF order = %v, want %v", order, want)
		}
	}
}

func TestResourceUtilizationAndWait(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "srv", 1, FIFO)
	r.Do(10*Nanosecond, nil)
	r.Do(10*Nanosecond, nil)
	k.Run()
	if got := r.Utilization(20 * Nanosecond); got != 1.0 {
		t.Errorf("utilization = %v, want 1.0", got)
	}
	if got := r.Utilization(40 * Nanosecond); got != 0.5 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
	// Second task waited 10ns.
	if r.WaitTime != 10*Nanosecond {
		t.Errorf("wait = %v, want 10ns", r.WaitTime)
	}
	if r.TaskCount != 2 {
		t.Errorf("task count = %d, want 2", r.TaskCount)
	}
}

func TestResourceStartedCallback(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "srv", 1, FIFO)
	var startedAt Time
	r.Do(10*Nanosecond, nil)
	r.Submit(&Task{
		Hold:    Nanosecond,
		Started: func() { startedAt = k.Now() },
	})
	k.Run()
	if startedAt != 10*Nanosecond {
		t.Errorf("second task started at %v, want 10ns", startedAt)
	}
}

// TestResourceStartedLengthensHold: a task that starts at once, on the
// immediate-start path, runs Started before its hold is charged, so a
// Started that lengthens Hold (the accelerators' scratchpad wipe) has
// the longer hold charged and completes after it. A queued task gets
// the same treatment when it is admitted later.
func TestResourceStartedLengthensHold(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "srv", 1, FIFO)
	var done []Time
	tasks := make([]*Task, 2)
	for i := range tasks {
		task := &Task{Hold: 10 * Nanosecond, Done: func() { done = append(done, k.Now()) }}
		task.Started = func() { task.Hold += 5 * Nanosecond }
		tasks[i] = task
	}
	r.Submit(tasks[0])
	if r.InService() != 1 || r.QueueLen() != 0 {
		t.Fatalf("first task did not start at once: %d in service, %d queued", r.InService(), r.QueueLen())
	}
	r.Submit(tasks[1])
	k.Run()
	if want := []Time{15 * Nanosecond, 30 * Nanosecond}; len(done) != 2 || done[0] != want[0] || done[1] != want[1] {
		t.Errorf("completions at %v, want %v", done, want)
	}
	if r.BusyTime != 30*Nanosecond {
		t.Errorf("BusyTime = %v, want 30ns (the lengthened holds)", r.BusyTime)
	}
	if r.WaitTime != 15*Nanosecond {
		t.Errorf("WaitTime = %v, want 15ns", r.WaitTime)
	}
}

// TestResourceHoldEndOrder pins how the kernel ends a hold: the server
// is released before the task's Done runs, and the queue is served
// after it. So inside Done the server already shows as free; a task
// queued before the hold ended is admitted ahead of any task Done
// submits (here when Done's Submit serves the queue); and with nothing
// queued, a task Done submits starts at once, inside Done.
func TestResourceHoldEndOrder(t *testing.T) {
	type step struct {
		what string
		at   Time
	}
	run := func(queueFirst bool) []step {
		k := NewKernel()
		r := NewResource(k, "srv", 1, FIFO)
		var log []step
		note := func(what string) func() {
			return func() { log = append(log, step{what, k.Now()}) }
		}
		task := func(name string, done func()) *Task {
			return &Task{Hold: 10 * Nanosecond, Started: note(name + " started"), Done: done}
		}
		r.Submit(task("a", func() {
			note("a done")()
			if got := r.InService(); got != 0 {
				t.Errorf("InService inside Done = %d, want 0: the server is released first", got)
			}
			r.Submit(task("c", note("c done")))
			note("a done returns")()
		}))
		if queueFirst {
			r.Submit(task("b", note("b done")))
		}
		k.Run()
		return log
	}
	for _, tc := range []struct {
		name       string
		queueFirst bool
		want       []step
	}{
		{"queued task first", true, []step{
			{"a started", 0},
			{"a done", 10 * Nanosecond},
			{"b started", 10 * Nanosecond},
			{"a done returns", 10 * Nanosecond},
			{"b done", 20 * Nanosecond},
			{"c started", 20 * Nanosecond},
			{"c done", 30 * Nanosecond},
		}},
		{"empty queue starts at once", false, []step{
			{"a started", 0},
			{"a done", 10 * Nanosecond},
			{"c started", 10 * Nanosecond},
			{"a done returns", 10 * Nanosecond},
			{"c done", 20 * Nanosecond},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := run(tc.queueFirst)
			if len(got) != len(tc.want) {
				t.Fatalf("callbacks ran as %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("callbacks ran as %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestResourceQueueCounts(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "srv", 1, FIFO)
	for i := 0; i < 5; i++ {
		r.Do(Nanosecond, nil)
	}
	// One in service, four queued.
	if r.InService() != 1 {
		t.Errorf("InService = %d, want 1", r.InService())
	}
	if r.QueueLen() != 4 {
		t.Errorf("QueueLen = %d, want 4", r.QueueLen())
	}
	k.Run()
	if !r.Idle() {
		t.Error("resource not idle after Run")
	}
}

func TestResourceZeroServersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-server resource did not panic")
		}
	}()
	NewResource(NewKernel(), "bad", 0, FIFO)
}

// Property: total busy time equals the sum of holds regardless of server
// count or arrival pattern.
func TestResourcePropertyBusyTimeConserved(t *testing.T) {
	f := func(holds []uint8, servers uint8) bool {
		n := int(servers%4) + 1
		k := NewKernel()
		r := NewResource(k, "srv", n, FIFO)
		var sum Time
		for _, h := range holds {
			d := Time(h) * Nanosecond
			sum += d
			r.Do(d, nil)
		}
		k.Run()
		return r.BusyTime == sum && r.TaskCount == uint64(len(holds))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(42).Fork(1)
	d := NewRNG(42).Fork(2)
	if c.Float64() == d.Float64() {
		t.Error("different forks produced identical first values (unlikely)")
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(7)
	var sum Time
	const n = 20000
	for i := 0; i < n; i++ {
		sum += g.Exp(10 * Microsecond)
	}
	mean := float64(sum) / n
	want := float64(10 * Microsecond)
	if mean < 0.95*want || mean > 1.05*want {
		t.Errorf("exp mean = %v, want within 5%% of %v", mean, want)
	}
}

// TestRNGExpSaturates: a draw past the largest Time returns the
// largest Time instead of wrapping to a negative value, and every draw
// that fits is the rounded product it always was.
func TestRNGExpSaturates(t *testing.T) {
	const mean = Time(math.MaxInt64 / 2)
	g, ref := NewRNG(1), rand.New(rand.NewSource(1))
	saturated := 0
	for i := 0; i < 1000; i++ {
		want := Time(math.MaxInt64)
		if f := math.Round(ref.ExpFloat64() * float64(mean)); f < math.MaxInt64 {
			want = Time(f)
		} else {
			saturated++
		}
		if got := g.Exp(mean); got != want {
			t.Fatalf("draw %d: Exp = %d, want %d", i, got, want)
		}
	}
	if saturated == 0 {
		t.Fatal("no draw reached the largest Time; the test checks nothing")
	}
}

func TestRNGLogNormalMedian(t *testing.T) {
	g := NewRNG(11)
	vals := make([]float64, 0, 10001)
	for i := 0; i < 10001; i++ {
		vals = append(vals, g.LogNormal(1024, 0.8))
	}
	// Median of samples should be near 1024.
	lo, hi := 0, 0
	for _, v := range vals {
		if v < 1024 {
			lo++
		} else {
			hi++
		}
	}
	ratio := float64(lo) / float64(lo+hi)
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("median split = %v, want ~0.5", ratio)
	}
}

func TestRNGParetoBounds(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := g.Pareto(10, 1.5, 500)
		if v < 10 || v > 500 {
			t.Fatalf("pareto sample %v out of [10,500]", v)
		}
	}
}

func TestRNGBoolProbability(t *testing.T) {
	g := NewRNG(9)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if p < 0.27 || p > 0.33 {
		t.Errorf("Bool(0.3) rate = %v", p)
	}
}

func TestResourceSetServersGrowStartsQueued(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "srv", 1, FIFO)
	var ends []Time
	for i := 0; i < 3; i++ {
		r.Do(10*Nanosecond, func() { ends = append(ends, k.Now()) })
	}
	// Growing mid-run must immediately start the queued tasks.
	k.At(5*Nanosecond, func() { r.SetServers(3) })
	k.Run()
	want := []Time{10 * Nanosecond, 15 * Nanosecond, 15 * Nanosecond}
	for i, w := range want {
		if ends[i] != w {
			t.Errorf("task %d ended at %v, want %v", i, ends[i], w)
		}
	}
}

func TestResourceSetServersShrinkDrains(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "srv", 3, FIFO)
	var ends []Time
	for i := 0; i < 5; i++ {
		r.Do(10*Nanosecond, func() { ends = append(ends, k.Now()) })
	}
	// Shrinking never preempts: the three in-flight tasks finish, then
	// the remaining two serialize on the single surviving server.
	k.At(0, func() { r.SetServers(1) })
	k.Run()
	want := []Time{10 * Nanosecond, 10 * Nanosecond, 10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond}
	for i, w := range want {
		if ends[i] != w {
			t.Errorf("task %d ended at %v, want %v", i, ends[i], w)
		}
	}
}

func TestResourceSetServersFloorsAtOne(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "srv", 4, FIFO)
	r.SetServers(-3)
	if r.Servers != 1 {
		t.Errorf("SetServers(-3) left Servers = %d, want 1", r.Servers)
	}
	done := false
	r.Do(Nanosecond, func() { done = true })
	k.Run()
	if !done {
		t.Error("floored resource no longer serves tasks")
	}
}

// TestResourceLevelAndOffline pins how the nominal level (SetServers,
// the autoscaler's actuator) and the offline hold (SetOffline, fault
// windows) compose into the live server count: live = nominal −
// offline, floored at one, whichever setter moves; and MaxServers and
// ServerArea account the live count, never the nominal one.
func TestResourceLevelAndOffline(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "srv", 4, FIFO)
	steps := []struct {
		name                string
		op                  func()
		live, nominal, peak int
	}{
		{"hold two offline", func() { r.SetOffline(2) }, 2, 4, 4},
		{"scale up under the hold", func() { r.SetServers(6) }, 4, 6, 4},
		{"release restores the scaled level", func() { r.SetOffline(0) }, 6, 6, 6},
		{"hold more than nominal", func() { r.SetOffline(10) }, 1, 6, 6},
		{"release again", func() { r.SetOffline(0) }, 6, 6, 6},
		{"hold five offline", func() { r.SetOffline(5) }, 1, 6, 6},
		{"scale past the peak under the hold", func() { r.SetServers(8) }, 3, 8, 6},
		{"release reaches the new peak", func() { r.SetOffline(0) }, 8, 8, 8},
	}
	for i, s := range steps {
		s := s
		k.At(Time(i+1)*10*Nanosecond, func() {
			s.op()
			if r.Servers != s.live || r.Nominal() != s.nominal || r.MaxServers() != s.peak {
				t.Errorf("%s: live/nominal/peak = %d/%d/%d, want %d/%d/%d", s.name,
					r.Servers, r.Nominal(), r.MaxServers(), s.live, s.nominal, s.peak)
			}
		})
	}
	k.Run()
	// Live servers per 10ns interval up to the last step: 4, 2, 4, 6,
	// 1, 6, 1, 3.
	if got, want := r.ServerArea(), 27*10*Nanosecond; got != want {
		t.Errorf("ServerArea = %v, want %v", got, want)
	}
}
