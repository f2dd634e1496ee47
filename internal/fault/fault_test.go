package fault

import (
	"math"
	"testing"

	"accelflow/internal/accel"
	"accelflow/internal/atm"
	"accelflow/internal/config"
	"accelflow/internal/mem"
	"accelflow/internal/noc"
	"accelflow/internal/obs"
	"accelflow/internal/sim"
)

// testTargets builds a full component set the injector can act on.
func testTargets(t *testing.T, k *sim.Kernel) (Targets, *config.Config) {
	t.Helper()
	cfg := config.Default()
	net := noc.NewNetwork(cfg)
	memory := mem.NewMemory(k, cfg)
	tg := Targets{
		DMA:     accel.NewDMAPool(k, cfg, net, memory),
		Manager: sim.NewResource(k, "manager", 4, sim.FIFO),
		ATM:     atm.New(200 * sim.Nanosecond),
		Net:     net,
	}
	for _, kd := range config.AllAccelKinds() {
		tg.Accels[kd] = accel.New(k, cfg, kd, noc.Node{Chiplet: 1}, sim.NewRNG(int64(kd)+11), sim.FIFO)
	}
	return tg, cfg
}

// allMechanisms enables every window type so picks exercise each path.
func allMechanisms(rate float64) Spec {
	return Spec{
		Rate:          rate,
		MeanWindow:    50 * sim.Microsecond,
		Horizon:       20 * sim.Millisecond,
		PEDegradeFrac: 0.5,
		PEFail:        true,
		ADMARemove:    2,
		ManagerStall:  true,
		ATMStall:      500 * sim.Nanosecond,
		NoCInflate:    4,
	}
}

func TestZeroRateSchedulesNothing(t *testing.T) {
	k := sim.NewKernel()
	tg, _ := testTargets(t, k)
	base := k.Pending()
	in := New(allMechanisms(0), 42)
	in.Attach(k, tg)
	if got := k.Pending(); got != base {
		t.Errorf("rate-0 Attach scheduled events: pending %d -> %d", base, got)
	}
	k.Run()
	if in.Stats != (Stats{}) {
		t.Errorf("rate-0 run recorded stats: %+v", in.Stats)
	}
}

func TestNoMechanismsSchedulesNothing(t *testing.T) {
	k := sim.NewKernel()
	tg, _ := testTargets(t, k)
	base := k.Pending()
	// Positive rate but nothing enabled: still a no-op.
	in := New(Spec{Rate: 1e6}, 42)
	in.Attach(k, tg)
	if got := k.Pending(); got != base {
		t.Errorf("no-mechanism Attach scheduled events: pending %d -> %d", base, got)
	}
}

func TestWindowsApplyAndRevert(t *testing.T) {
	k := sim.NewKernel()
	tg, cfg := testTargets(t, k)
	in := New(allMechanisms(50000), 42) // ~1000 windows over 20ms
	in.Attach(k, tg)

	// Snapshot the healthy state, watch for degradation mid-run, and
	// verify full restoration after the last window closes.
	basePEs := tg.Accels[config.TCP].PEs.Servers
	baseDMA := tg.DMA.Engines()
	sawChange := false
	k.Every(10*sim.Microsecond, func() {
		if in.Active() > 0 {
			sawChange = true
		}
	})
	k.Run()

	if in.Stats.Windows == 0 {
		t.Fatal("no fault windows fired")
	}
	if !sawChange {
		t.Error("sampler never observed an open window")
	}
	if in.Active() != 0 {
		t.Errorf("windows left open at end of run: %d", in.Active())
	}
	perMech := in.Stats.PEDegrades + in.Stats.PEFails + in.Stats.ADMARemovals +
		in.Stats.ManagerStalls + in.Stats.ATMStalls + in.Stats.NoCInflations
	if perMech != in.Stats.Windows {
		t.Errorf("per-mechanism counts %d != total windows %d", perMech, in.Stats.Windows)
	}
	// Everything must be back to the healthy configuration.
	for _, kd := range config.AllAccelKinds() {
		if tg.Accels[kd].PEs.Servers != basePEs {
			t.Errorf("%v PEs not restored: %d, want %d", kd, tg.Accels[kd].PEs.Servers, basePEs)
		}
		if tg.Accels[kd].Failed() {
			t.Errorf("%v still marked failed after run", kd)
		}
	}
	if tg.DMA.Engines() != baseDMA {
		t.Errorf("A-DMA engines not restored: %d, want %d", tg.DMA.Engines(), baseDMA)
	}
	if tg.Manager.Servers != 4 {
		t.Errorf("manager servers not restored: %d, want 4", tg.Manager.Servers)
	}
	if tg.ATM.Stall() != 0 {
		t.Errorf("ATM stall not cleared: %v", tg.ATM.Stall())
	}
	if tg.Net.LatencyScale() != 1 {
		t.Errorf("NoC latency scale not restored: %v", tg.Net.LatencyScale())
	}
	_ = cfg
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) Stats {
		k := sim.NewKernel()
		tg, _ := testTargets(t, k)
		in := New(allMechanisms(20000), seed)
		in.Attach(k, tg)
		k.Run()
		return in.Stats
	}
	a, b := run(42), run(42)
	if a != b {
		t.Errorf("same seed gave different schedules: %+v vs %+v", a, b)
	}
	if c := run(43); c == a {
		t.Errorf("different seeds gave identical schedules: %+v", c)
	}
}

func TestAttachTwicePanics(t *testing.T) {
	k := sim.NewKernel()
	tg, _ := testTargets(t, k)
	in := New(Spec{}, 1)
	in.Attach(k, tg)
	defer func() {
		if recover() == nil {
			t.Error("second Attach did not panic")
		}
	}()
	in.Attach(k, tg)
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"zero", Spec{}, true},
		{"full", allMechanisms(1000), true},
		{"negative rate", Spec{Rate: -1}, false},
		{"negative window", Spec{MeanWindow: -1}, false},
		{"degrade frac above one", Spec{PEDegradeFrac: 1.5}, false},
		{"negative adma", Spec{ADMARemove: -1}, false},
		{"negative atm stall", Spec{ATMStall: -1}, false},
		{"noc inflate below one", Spec{NoCInflate: 0.5}, false},
		{"loss rate above one", Spec{RemoteLossRate: 1.5}, false},
		{"loss rate one", Spec{RemoteLossRate: 1}, true},
		{"window exceeds horizon", Spec{MeanWindow: 2 * sim.Millisecond, Horizon: sim.Millisecond}, false},
		{"window equals horizon", Spec{MeanWindow: sim.Millisecond, Horizon: sim.Millisecond}, true},
		{"window without horizon", Spec{MeanWindow: sim.Millisecond}, true},
		{"rate NaN", Spec{Rate: math.NaN()}, false},
		{"rate infinite", Spec{Rate: math.Inf(1)}, false},
		{"degrade frac NaN", Spec{PEDegradeFrac: math.NaN()}, false},
		{"noc inflate infinite", Spec{NoCInflate: math.Inf(1)}, false},
		{"loss rate NaN", Spec{RemoteLossRate: math.NaN()}, false},
		{"window count at cap", Spec{Rate: MaxWindows, Horizon: sim.Second}, true},
		{"window count above cap", Spec{Rate: 1e8, Horizon: sim.Second}, false},
		{"window count above cap at default horizon", Spec{Rate: 2e6}, false},
		{"mean gap overflows the clock", Spec{Rate: 1e-7}, false},
		{"smallest positive rate", Spec{Rate: math.SmallestNonzeroFloat64}, false},
		{"mean gap fits the clock", Spec{Rate: 1e-6}, true},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestAcceptedRatesDrawBoundedWindows: over log-spaced rates from
// 1e-300 to 1e6 windows/s, Validate rejects exactly the rates whose mean
// gap overflows sim.Time (below about 1.08e-7), and every rate it
// accepts draws a bounded number of windows. An accepted rate whose
// mean gap overflowed would clamp every gap to 1ns and draw a window per
// nanosecond of horizon: 1e9 over the one-second horizon of Mix, which
// ends the process out of memory. The horizon here is 1ms, so such a
// rate fails the bound with 1e6 windows instead.
func TestAcceptedRatesDrawBoundedWindows(t *testing.T) {
	const minRate = float64(sim.Second) / (1 << 63)
	for e := -300.0; e <= 6; e += 0.25 {
		spec := allMechanisms(math.Pow(10, e))
		spec.Horizon = sim.Millisecond
		err := spec.Validate()
		if ok := spec.Rate >= minRate; (err == nil) != ok {
			t.Fatalf("rate %g: Validate() = %v, want ok=%v", spec.Rate, err, ok)
		}
		if err != nil {
			continue
		}
		k := sim.NewKernel()
		in := New(spec, 3)
		in.Attach(k, Targets{})
		k.Run()
		mean := spec.Rate * spec.Horizon.Seconds()
		if got := float64(in.Stats.Windows); got > 2*mean+16 {
			t.Fatalf("rate %g drew %v windows over %v, expected about %.3g", spec.Rate, got, spec.Horizon, mean)
		}
	}
}

// TestLowestRatesApplyNoWindows: at 1.2e-7 windows/s, just above the
// lowest rate Validate accepts, a one-second horizon expects about
// 1.2e-7 windows per seed, so none over 200 seeds. The mean gap nearly
// fills the clock: a gap drawn past it once wrapped to a negative
// value, clamped to 1ns and opened a window at the start of the run.
func TestLowestRatesApplyNoWindows(t *testing.T) {
	spec := Mix(1.2e-7, 0, 0)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	var windows uint64
	for seed := int64(1); seed <= 200; seed++ {
		k := sim.NewKernel()
		in := New(*spec, seed)
		in.Attach(k, Targets{})
		k.Run()
		windows += in.Stats.Windows
	}
	if windows != 0 {
		t.Fatalf("rate %g over seeds 1-200 applied %d windows, want 0", spec.Rate, windows)
	}
}

// TestShortestWindowLastsOneMicrosecond: Attach stretches every drawn
// window to at least 1µs. With a 1ns mean every draw is shorter, so
// every window opens for exactly 1µs; the fault spans' segments and
// their open/close times show it. The windows are the kernel's only
// events, so each one fires.
func TestShortestWindowLastsOneMicrosecond(t *testing.T) {
	k := sim.NewKernel()
	sink := obs.New()
	sink.SetClock(k)
	spec := allMechanisms(1e5) // about 100 windows over 1ms
	spec.MeanWindow = sim.Nanosecond
	spec.Horizon = sim.Millisecond
	in := New(spec, 5)
	in.Attach(k, Targets{Sink: sink})
	k.Run()
	spans := sink.Spans()
	if in.Stats.Windows < 50 || len(spans) != int(in.Stats.Windows) {
		t.Fatalf("%d windows applied, %d fault spans; want about 100 of each", in.Stats.Windows, len(spans))
	}
	for _, sp := range spans {
		if sp.End-sp.Start != sim.Microsecond {
			t.Fatalf("window %s open from %v to %v, want exactly 1µs", sp.Name, sp.Start, sp.End)
		}
		if len(sp.Segs) != 1 || sp.Segs[0].End-sp.Segs[0].Start != sim.Microsecond {
			t.Fatalf("window %s segments %+v, want one of exactly 1µs", sp.Name, sp.Segs)
		}
	}
}
