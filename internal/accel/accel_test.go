package accel

import (
	"slices"
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/mem"
	"accelflow/internal/noc"
	"accelflow/internal/sim"
)

func newAccel(t *testing.T, cfg *config.Config, kind config.AccelKind) (*sim.Kernel, *Accelerator) {
	t.Helper()
	k := sim.NewKernel()
	a := New(k, cfg, kind, noc.Node{Chiplet: 1}, sim.NewRNG(3), sim.FIFO)
	return k, a
}

func entry(bytes, tenant int) *Entry {
	return &Entry{DataBytes: bytes, Tenant: tenant}
}

func TestOfferAdmitsAndExecutes(t *testing.T) {
	cfg := config.Default()
	k, a := newAccel(t, cfg, config.Ser)
	var ready *Entry
	a.OnReady = func(e *Entry) { ready = e }
	e := entry(1024, 0)
	if got := a.Offer(e, false); got != Admitted {
		t.Fatalf("Offer = %v, want Admitted", got)
	}
	k.Run()
	if ready == nil {
		t.Fatal("entry never reached the output queue")
	}
	if a.Stats.Invocations != 1 {
		t.Errorf("invocations = %d", a.Stats.Invocations)
	}
	// Ser grows the payload by the serialization overhead.
	if ready.DataBytes <= 1024 {
		t.Errorf("Ser output %d should exceed input 1024", ready.DataBytes)
	}
	if e.LastPEHold < cfg.AccelCost(config.Ser, 1024) {
		t.Errorf("PE hold %v below pure compute", e.LastPEHold)
	}
}

func TestOutputBytesShapes(t *testing.T) {
	cfg := config.Default()
	cases := []struct {
		k    config.AccelKind
		in   int
		test func(out int) bool
	}{
		{config.Cmp, 10000, func(o int) bool { return o < 10000/2 }},
		{config.Dcmp, 1000, func(o int) bool { return o > 1500 }},
		{config.Ser, 1000, func(o int) bool { return o > 1000 }},
		{config.Dser, 1150, func(o int) bool { return o < 1150 }},
		{config.TCP, 1000, func(o int) bool { return o == 1000 }},
		{config.Encr, 777, func(o int) bool { return o == 777 }},
		{config.LdB, 123, func(o int) bool { return o == 123 }},
		{config.Cmp, 10, func(o int) bool { return o >= 64 }}, // floor
	}
	for _, c := range cases {
		if out := OutputBytes(cfg, c.k, c.in); !c.test(out) {
			t.Errorf("OutputBytes(%v, %d) = %d", c.k, c.in, out)
		}
	}
}

func TestQueueCapacityAndOverflow(t *testing.T) {
	cfg := config.Default()
	cfg.PEsPerAccel = 1
	cfg.InputQueueEntries = 2
	cfg.OverflowEntries = 1
	k, a := newAccel(t, cfg, config.TCP)
	done := 0
	a.OnReady = func(*Entry) { done++ }

	// The first entry moves straight into the free PE (releasing its
	// queue slot); the next two fill the queue; the fourth overflows;
	// the fifth is rejected.
	if a.Offer(entry(512, 0), true) != Admitted {
		t.Fatal("first not admitted")
	}
	if a.Offer(entry(512, 0), true) != Admitted {
		t.Fatal("second not admitted")
	}
	if a.Offer(entry(512, 0), true) != Admitted {
		t.Fatal("third not admitted (slot freed by PE pickup)")
	}
	if a.Offer(entry(512, 0), true) != Overflowed {
		t.Fatal("fourth did not overflow")
	}
	if a.OverflowLen() != 1 {
		t.Errorf("overflow len = %d", a.OverflowLen())
	}
	if a.Offer(entry(512, 0), true) != Rejected {
		t.Fatal("fifth not rejected")
	}
	// CPU-side offers never overflow.
	if a.Offer(entry(512, 0), false) != Rejected {
		t.Fatal("CPU offer overflowed")
	}
	k.Run()
	if done != 4 {
		t.Errorf("completed %d entries, want 4 (incl. drained overflow)", done)
	}
	if a.Stats.Overflows != 1 || a.Stats.Rejections != 2 {
		t.Errorf("overflow/rejection stats = %d/%d", a.Stats.Overflows, a.Stats.Rejections)
	}
	if a.OverflowLen() != 0 {
		t.Errorf("overflow not drained: %d", a.OverflowLen())
	}
}

func TestTenantWipeCharged(t *testing.T) {
	cfg := config.Default()
	k, a := newAccel(t, cfg, config.RPC)
	a.OnReady = func(*Entry) {}
	a.Offer(entry(100, 1), false)
	a.Offer(entry(100, 1), false)
	a.Offer(entry(100, 2), false)
	k.Run()
	// First entry (tenant change from -1) and third (1->2).
	if a.Stats.TenantWipes != 2 {
		t.Errorf("tenant wipes = %d, want 2", a.Stats.TenantWipes)
	}
}

func TestLargePayloadSpillCostsMore(t *testing.T) {
	cfg := config.Default()
	k1, a1 := newAccel(t, cfg, config.TCP)
	var t1 sim.Time
	a1.OnReady = func(*Entry) { t1 = k1.Now() }
	a1.Offer(entry(cfg.InlineDataBytes, 0), false)
	k1.Run()

	k2, a2 := newAccel(t, cfg, config.TCP)
	var t2 sim.Time
	a2.OnReady = func(*Entry) { t2 = k2.Now() }
	a2.Offer(entry(cfg.InlineDataBytes*8, 0), false)
	k2.Run()
	if t2 <= t1 {
		t.Errorf("8x payload (%v) not slower than inline payload (%v)", t2, t1)
	}
}

func TestArmDeliversAfterWait(t *testing.T) {
	cfg := config.Default()
	k, a := newAccel(t, cfg, config.TCP)
	var at sim.Time
	a.OnReady = func(*Entry) { at = k.Now() }
	a.Arm(entry(256, 0), 5*sim.Microsecond, func() { t.Error("unexpected timeout") })
	if a.InQueueLen() != 1 {
		t.Errorf("armed entry does not hold a slot: %d", a.InQueueLen())
	}
	k.Run()
	if at < 5*sim.Microsecond {
		t.Errorf("armed entry fired at %v, before the 5us wait", at)
	}
}

func TestArmTimesOut(t *testing.T) {
	cfg := config.Default()
	cfg.TCPTimeout = 1 * sim.Microsecond
	k, a := newAccel(t, cfg, config.TCP)
	fired := false
	timedOut := false
	a.OnReady = func(*Entry) { fired = true }
	a.Arm(entry(256, 0), 10*sim.Microsecond, func() { timedOut = true })
	k.Run()
	if fired {
		t.Error("timed-out entry executed")
	}
	if !timedOut {
		t.Error("timeout callback never ran")
	}
	if a.Stats.ArmedTimeouts != 1 {
		t.Errorf("timeout stat = %d", a.Stats.ArmedTimeouts)
	}
	if a.InQueueLen() != 0 {
		t.Error("timed-out entry leaked a queue slot")
	}
}

func TestArmRejectedWhenFull(t *testing.T) {
	cfg := config.Default()
	cfg.InputQueueEntries = 1
	cfg.PEsPerAccel = 1
	k, a := newAccel(t, cfg, config.TCP)
	a.OnReady = func(*Entry) {}
	a.Offer(entry(256, 0), false)
	a.Offer(entry(256, 0), false) // occupies the single slot's queue
	timedOut := false
	res := a.Arm(entry(256, 0), sim.Microsecond, func() { timedOut = true })
	if res != ArmRejected {
		t.Errorf("Arm on a full queue = %v, want ArmRejected", res)
	}
	// A rejection is back-pressure, not a lost response: the timeout
	// callback must not run and the timeout stats must stay clean.
	if timedOut {
		t.Error("rejected Arm ran the timeout callback")
	}
	if a.Stats.ArmRejections != 1 {
		t.Errorf("ArmRejections = %d, want 1", a.Stats.ArmRejections)
	}
	if a.Stats.ArmedTimeouts != 0 || a.Stats.Rejections != 0 {
		t.Errorf("rejection leaked into timeout/offer stats: timeouts=%d rejections=%d",
			a.Stats.ArmedTimeouts, a.Stats.Rejections)
	}
	k.Run()
	if timedOut {
		t.Error("rejected Arm scheduled a deferred timeout")
	}
}

func TestFailedAcceleratorRejectsAdmissionsAndArms(t *testing.T) {
	cfg := config.Default()
	k, a := newAccel(t, cfg, config.TCP)
	done := 0
	a.OnReady = func(*Entry) { done++ }
	a.Offer(entry(256, 0), false) // in flight before the failure
	a.SetFailed(true)
	if !a.Failed() {
		t.Fatal("Failed() false after SetFailed(true)")
	}
	if got := a.Offer(entry(256, 0), true); got != Rejected {
		t.Errorf("Offer on failed accel = %v, want Rejected", got)
	}
	if got := a.Arm(entry(256, 0), sim.Microsecond, nil); got != ArmRejected {
		t.Errorf("Arm on failed accel = %v, want ArmRejected", got)
	}
	k.Run()
	if done != 1 {
		t.Errorf("in-flight entry did not drain: done = %d", done)
	}
	a.SetFailed(false)
	if got := a.Offer(entry(256, 0), false); got != Admitted {
		t.Errorf("Offer after recovery = %v, want Admitted", got)
	}
	k.Run()
}

// TestTenantWipeFollowsExecutionOrder pins the satellite fix: the wipe
// is decided when an entry starts on a PE, not when it is offered.
// Under EDF, interleaved tenants submitted as A,B,A are admitted in
// deadline order A,A,B — two tenant switches at execution time (plus
// the initial one), where submission-order accounting would see three.
func TestTenantWipeFollowsExecutionOrder(t *testing.T) {
	cfg := config.Default()
	cfg.PEsPerAccel = 1
	k := sim.NewKernel()
	a := New(k, cfg, config.Encr, noc.Node{Chiplet: 1}, sim.NewRNG(3), sim.EDF)
	var tenants []int
	var holds []sim.Time
	a.OnReady = func(e *Entry) {
		tenants = append(tenants, e.Tenant)
		holds = append(holds, e.LastPEHold)
	}
	// Occupy the PE so the next three actually queue and re-order.
	first := entry(100, 1)
	first.Deadline = 1 * sim.Microsecond
	a.Offer(first, false)
	for _, c := range []struct {
		tenant   int
		deadline sim.Time
	}{
		{1, 300 * sim.Microsecond}, // submitted first, runs last
		{2, 200 * sim.Microsecond},
		{1, 100 * sim.Microsecond}, // submitted last, runs first
	} {
		e := entry(100, c.tenant)
		e.Deadline = c.deadline
		a.Offer(e, false)
	}
	k.Run()
	if want := []int{1, 1, 2, 1}; len(tenants) != 4 ||
		tenants[0] != want[0] || tenants[1] != want[1] ||
		tenants[2] != want[2] || tenants[3] != want[3] {
		t.Fatalf("execution order = %v, want %v", tenants, want)
	}
	// Execution order 1,1,2,1: initial wipe + 1->2 + 2->1 = 3 wipes.
	// (Submission order 1,1,2,1 happens to also give 3 here, but the
	// holds below pin WHICH entries were charged.)
	if a.Stats.TenantWipes != 3 {
		t.Errorf("tenant wipes = %d, want 3", a.Stats.TenantWipes)
	}
	// The second executed entry continues tenant 1 and must not carry a
	// wipe; the third (tenant 2) and fourth (back to 1) must.
	base := holds[1]
	if holds[2] != base+cfg.ScratchWipe || holds[3] != base+cfg.ScratchWipe {
		t.Errorf("tenant-switch entries not charged the wipe: holds = %v (wipe %v)", holds, cfg.ScratchWipe)
	}
	if holds[0] != base+cfg.ScratchWipe {
		t.Errorf("first entry should carry the initial wipe: holds = %v", holds)
	}
}

func TestGluePassAccounting(t *testing.T) {
	cfg := config.Default()
	_, a := newAccel(t, cfg, config.Dser)
	d1 := a.GluePass(15)
	d2 := a.GluePass(22)
	if d2 <= d1 {
		t.Error("more instructions should take longer")
	}
	if a.Stats.GluePasses != 2 || a.Stats.GlueInstrs != 37 {
		t.Errorf("glue stats = %d passes / %d instrs", a.Stats.GluePasses, a.Stats.GlueInstrs)
	}
	if m := a.Stats.MeanGlueInstrs(); m != 18.5 {
		t.Errorf("mean glue instrs = %v, want 18.5", m)
	}
	var empty Stats
	if empty.MeanGlueInstrs() != 0 {
		t.Error("empty stats mean not zero")
	}
}

func TestEDFDisciplineInPEs(t *testing.T) {
	cfg := config.Default()
	cfg.PEsPerAccel = 1
	k := sim.NewKernel()
	a := New(k, cfg, config.Encr, noc.Node{Chiplet: 1}, sim.NewRNG(3), sim.EDF)
	var order []sim.Time
	a.OnReady = func(e *Entry) { order = append(order, e.Deadline) }
	// First occupies the PE; the rest queue and should run by deadline.
	e0 := entry(100, 0)
	a.Offer(e0, false)
	for _, d := range []sim.Time{300, 100, 200} {
		e := entry(100, 0)
		e.Deadline = d * sim.Microsecond
		a.Offer(e, false)
	}
	k.Run()
	if len(order) != 4 {
		t.Fatalf("completed %d", len(order))
	}
	if !(order[1] == 100*sim.Microsecond && order[2] == 200*sim.Microsecond && order[3] == 300*sim.Microsecond) {
		t.Errorf("EDF order wrong: %v", order[1:])
	}
}

func TestDMAPoolTransfer(t *testing.T) {
	cfg := config.Default()
	k := sim.NewKernel()
	net := noc.NewNetwork(cfg)
	memory := mem.NewMemory(k, cfg)
	d := NewDMAPool(k, cfg, net, memory)
	src := noc.Node{Chiplet: 1, X: 0}
	dst := noc.Node{Chiplet: 1, X: 1}
	var small, big sim.Time
	d.Transfer(src, dst, 1024, 8, nil, func() { small = k.Now() })
	k.Run()
	k2 := sim.NewKernel()
	d2 := NewDMAPool(k2, cfg, noc.NewNetwork(cfg), mem.NewMemory(k2, cfg))
	d2.Transfer(src, dst, 64*1024, 8, nil, func() { big = k2.Now() })
	k2.Run()
	if big <= small {
		t.Errorf("64KB transfer (%v) not slower than 1KB (%v): spill path missing", big, small)
	}
	if d.Transfers != 1 || d.BytesMoved != 1032 {
		t.Errorf("stats = %d/%d", d.Transfers, d.BytesMoved)
	}
}

func TestDMAPoolContention(t *testing.T) {
	cfg := config.Default()
	cfg.ADMAEngines = 1
	k := sim.NewKernel()
	net := noc.NewNetwork(cfg)
	d := NewDMAPool(k, cfg, net, mem.NewMemory(k, cfg))
	src := noc.Node{Chiplet: 1, X: 0}
	dst := noc.Node{Chiplet: 1, X: 3}
	var times []sim.Time
	for i := 0; i < 3; i++ {
		d.Transfer(src, dst, 2048, 8, nil, func() { times = append(times, k.Now()) })
	}
	k.Run()
	if len(times) != 3 {
		t.Fatalf("completed %d", len(times))
	}
	// The payload fits inline, so each transfer holds the one engine for
	// exactly its route time, back to back.
	hold := net.TransferTime(src, dst, 2048+8)
	for i, at := range times {
		if want := sim.Time(i+1) * hold; at != want {
			t.Errorf("single engine did not serialize: transfer %d done at %v, want %v", i, at, want)
		}
	}
	if d.Transfers != 3 || d.BytesMoved != 3*(2048+8) {
		t.Errorf("stats = %d/%d", d.Transfers, d.BytesMoved)
	}
	if d.Busy() != 3*hold {
		t.Errorf("engine busy %v, want %v", d.Busy(), 3*hold)
	}
}

func TestDMAResultDeposit(t *testing.T) {
	cfg := config.Default()
	k := sim.NewKernel()
	d := NewDMAPool(k, cfg, noc.NewNetwork(cfg), mem.NewMemory(k, cfg))
	ran := false
	// A result deposit is a Transfer to the memory node with no trace.
	d.Transfer(noc.Node{Chiplet: 1}, noc.Node{Chiplet: 0, Y: 6}, 4096, 0, nil, func() { ran = true })
	k.Run()
	if !ran {
		t.Error("transfer to memory never completed")
	}
}

// TestDMATransferAllocsSpillPath pins the spill path of Transfer: a
// payload above InlineDataBytes moves through an engine and through
// memory, and both legs join on one pooled record, so a serial chain
// of such transfers is ~allocation-free once the pools have warmed up.
func TestDMATransferAllocsSpillPath(t *testing.T) {
	const transfers = 2000
	cfg := config.Default()
	bytes := 4 * cfg.InlineDataBytes
	src := noc.Node{Chiplet: 1, X: 0}
	dst := noc.Node{Chiplet: 1, X: 1}
	avg := testing.AllocsPerRun(5, func() {
		k := sim.NewKernel()
		d := NewDMAPool(k, cfg, noc.NewNetwork(cfg), mem.NewMemory(k, cfg))
		left := transfers
		var next func()
		next = func() {
			left--
			if left > 0 {
				d.Transfer(src, dst, bytes, 8, nil, next)
			}
		}
		d.Transfer(src, dst, bytes, 8, nil, next)
		k.Run()
	})
	if perTransfer := avg / transfers; perTransfer > 0.05 {
		t.Errorf("spill-path Transfer allocates %.3f allocs/transfer (%.0f per %d-transfer run), budget 0.05",
			perTransfer, avg, transfers)
	}
}

// TestGluePassMatchesDispatcherTime holds the hoisted dispatcher cycle
// to the config formula it replaces, at the default clock and at
// clocks whose cycle time rounds.
func TestGluePassMatchesDispatcherTime(t *testing.T) {
	for _, ghz := range []float64{2.4, 3.0, 1.7} {
		cfg := config.Default()
		cfg.CPUFreqGHz = ghz
		_, a := newAccel(t, cfg, config.TCP)
		for n := 0; n <= 64; n++ {
			if got, want := a.GluePass(n), cfg.DispatcherTime(n); got != want {
				t.Fatalf("%v GHz: GluePass(%d) = %v, want DispatcherTime %v", ghz, n, got, want)
			}
		}
	}
}

// TestSizeSamplerKeepsEverySeventhInvocation pins Fig. 5's size
// sampler: with SampleSizes on, invocations 0, 7, 14, … record their
// input and output sizes, and no others do.
func TestSizeSamplerKeepsEverySeventhInvocation(t *testing.T) {
	cfg := config.Default()
	k, a := newAccel(t, cfg, config.Ser)
	a.SampleSizes = true
	const invocations = 50
	var wantIn, wantOut []int
	for i := 0; i < invocations; i++ {
		in := 100 + i
		if i%7 == 0 {
			wantIn = append(wantIn, in)
			wantOut = append(wantOut, OutputBytes(cfg, config.Ser, in))
		}
		if got := a.Offer(entry(in, 0), false); got != Admitted {
			t.Fatalf("Offer %d = %v", i, got)
		}
		k.Run() // one at a time, so invocations complete in offer order
	}
	if a.Stats.Invocations != invocations {
		t.Fatalf("invocations = %d, want %d", a.Stats.Invocations, invocations)
	}
	if !slices.Equal(a.Stats.InSizes, wantIn) || !slices.Equal(a.Stats.OutSizes, wantOut) {
		t.Errorf("sampled sizes in %v out %v, want in %v out %v", a.Stats.InSizes, a.Stats.OutSizes, wantIn, wantOut)
	}
}
