// Package fault is the deterministic fault-injection layer: it
// schedules seed-derived fault windows on the simulation kernel that
// degrade or fail the PEs of an accelerator kind, remove A-DMA
// engines, stall the RELIEF manager or the ATM, inflate NoC head
// latency, or raise the remote-response loss rate beyond the baked-in
// 3.2e-6 (paper §VII-B.6).
//
// Determinism: the injector draws from RNG streams forked via
// sim.DeriveSeed(seed, "fault/<purpose>"), so the window schedule
// depends only on (seed, Spec) — never on engine RNG streams, worker
// count, or wall clock. With Rate == 0 the injector schedules zero
// kernel events and touches no RNG stream, so a run with the layer
// attached at rate 0 is bit-identical to a run without the layer.
package fault

import (
	"fmt"
	"math"

	"accelflow/internal/accel"
	"accelflow/internal/atm"
	"accelflow/internal/config"
	"accelflow/internal/noc"
	"accelflow/internal/obs"
	"accelflow/internal/sim"
)

// Spec configures the injector. The zero value disables everything.
type Spec struct {
	// Rate is the fault-window arrival rate in windows per simulated
	// second (Poisson). 0 disables window scheduling entirely.
	Rate float64
	// MeanWindow is the mean window duration (exponential draw).
	// Default 200us.
	MeanWindow sim.Time
	// Horizon bounds window scheduling to [0, Horizon). Default 100ms.
	Horizon sim.Time

	// PEDegradeFrac > 0 enables degrade windows: that fraction of one
	// (randomly chosen) accelerator kind's PEs goes offline.
	PEDegradeFrac float64
	// PEFail enables failure windows: one accelerator kind rejects all
	// new admissions and arms for the window.
	PEFail bool
	// ADMARemove > 0 enables A-DMA windows removing that many engines.
	ADMARemove int
	// ManagerStall enables windows that serialize the RELIEF manager
	// to a single engine.
	ManagerStall bool
	// ATMStall > 0 enables windows adding that much ATM read latency.
	ATMStall sim.Time
	// NoCInflate > 1 enables windows multiplying NoC head latency.
	NoCInflate float64

	// RemoteLossRate, when > 0, replaces the engine's baked-in 3.2e-6
	// remote-response loss rate for the whole run. It is not windowed:
	// loss is a property of the modeled far side, not of this package's
	// on-package fault windows.
	RemoteLossRate float64
}

// MaxWindows caps a spec's expected window count, Rate times the
// effective Horizon. Attach draws every window into a slice before the
// run starts, so without a cap a large rate would exhaust memory first.
const MaxWindows = 100_000

// Validate rejects out-of-range parameters.
func (s Spec) Validate() error {
	switch {
	case !finite(s.Rate) || !finite(s.PEDegradeFrac) || !finite(s.NoCInflate) || !finite(s.RemoteLossRate):
		return fmt.Errorf("fault: Rate, PEDegradeFrac, NoCInflate and RemoteLossRate must be finite, got %v/%v/%v/%v",
			s.Rate, s.PEDegradeFrac, s.NoCInflate, s.RemoteLossRate)
	case s.Rate < 0:
		return fmt.Errorf("fault: Rate must be non-negative, got %v", s.Rate)
	case s.Rate > 0 && float64(sim.Second)/s.Rate >= math.MaxInt64:
		// Attach draws gaps of mean 1/Rate seconds as a sim.Time; below
		// about 1.08e-7 windows/s that mean overflows to a negative one,
		// every gap clamps to 1ns and the schedule grows toward 1e9
		// windows per simulated second.
		return fmt.Errorf("fault: Rate %v is too low: the mean gap between windows, 1/Rate seconds, overflows the clock", s.Rate)
	case s.MeanWindow < 0 || s.Horizon < 0:
		return fmt.Errorf("fault: MeanWindow/Horizon must be non-negative")
	case s.Rate*s.horizon().Seconds() > MaxWindows:
		return fmt.Errorf("fault: Rate %v over Horizon %v expects more than %d windows", s.Rate, s.horizon(), MaxWindows)
	case s.PEDegradeFrac < 0 || s.PEDegradeFrac > 1:
		return fmt.Errorf("fault: PEDegradeFrac must be in [0,1], got %v", s.PEDegradeFrac)
	case s.ADMARemove < 0:
		return fmt.Errorf("fault: ADMARemove must be non-negative, got %d", s.ADMARemove)
	case s.ATMStall < 0:
		return fmt.Errorf("fault: ATMStall must be non-negative, got %v", s.ATMStall)
	case s.NoCInflate != 0 && s.NoCInflate < 1:
		return fmt.Errorf("fault: NoCInflate must be >= 1 (or 0 to disable), got %v", s.NoCInflate)
	case s.RemoteLossRate < 0 || s.RemoteLossRate > 1:
		return fmt.Errorf("fault: RemoteLossRate must be in [0,1], got %v", s.RemoteLossRate)
	case s.MeanWindow > 0 && s.Horizon > 0 && s.MeanWindow > s.Horizon:
		// A mean window longer than the injection horizon describes an
		// experiment whose typical fault outlives the whole campaign.
		return fmt.Errorf("fault: MeanWindow (%v) must not exceed Horizon (%v)", s.MeanWindow, s.Horizon)
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Mix is the fault mix the resilience experiment and the observed run
// inject: every window mechanism on (half of one kind's PEs degraded,
// one kind failed, 2 A-DMA engines removed, the manager stalled,
// 500ns of ATM stall, NoC head latency ×4), windows of mean length
// window arriving at rate over a one-second horizon, and
// remote-response loss at loss (0 keeps the baked-in rate).
func Mix(rate float64, window sim.Time, loss float64) *Spec {
	return &Spec{
		Rate:           rate,
		MeanWindow:     window,
		Horizon:        sim.Second,
		PEDegradeFrac:  0.5,
		PEFail:         true,
		ADMARemove:     2,
		ManagerStall:   true,
		ATMStall:       500 * sim.Nanosecond,
		NoCInflate:     4,
		RemoteLossRate: loss,
	}
}

// horizon is Horizon with its 100ms default applied.
func (s Spec) horizon() sim.Time {
	if s.Horizon <= 0 {
		return 100 * sim.Millisecond
	}
	return s.Horizon
}

// Stats counts applied windows per mechanism.
type Stats struct {
	Windows       uint64
	PEDegrades    uint64
	PEFails       uint64
	ADMARemovals  uint64
	ManagerStalls uint64
	ATMStalls     uint64
	NoCInflations uint64
}

// Targets are the components a window can act on. Sink may be nil.
type Targets struct {
	Accels  [config.NumAccelKinds]*accel.Accelerator
	DMA     *accel.DMAPool
	Manager *sim.Resource
	ATM     *atm.ATM
	Net     *noc.Network
	Sink    *obs.Sink
}

type mechanism int

const (
	mechPEDegrade mechanism = iota
	mechPEFail
	mechADMA
	mechManager
	mechATM
	mechNoC
)

// Injector owns one run's fault schedule. Build with New, hand to
// engine.Params.Faults (New calls Attach while assembling the server).
type Injector struct {
	Spec  Spec
	Stats Stats

	seed     int64
	attached bool

	// Reference counts make overlapping windows of the same mechanism
	// compose: the degraded state applies while any window is open and
	// reverts when the last one closes. Resizing windows hold servers
	// out of service with sim.Resource.SetOffline, so they compose with
	// the autoscaler's SetServers level without tracking it.
	degradeDepth [config.NumAccelKinds]int
	failDepth    [config.NumAccelKinds]int
	admaDepth    int
	mgrDepth     int
	atmDepth     int
	nocDepth     int

	active int
}

// New builds an injector for the given spec and seed. Derive the seed
// from the run seed (e.g. sim.DeriveSeed(runSeed, "faults")) so fault
// streams never alias workload streams.
func New(spec Spec, seed int64) *Injector {
	return &Injector{Spec: spec, seed: seed}
}

// Active reports the number of currently open fault windows.
func (in *Injector) Active() int { return in.active }

// mechanisms lists the enabled window types in a fixed order (the
// order feeds the uniform pick, so it is part of the deterministic
// contract).
func (in *Injector) mechanisms() []mechanism {
	var m []mechanism
	s := in.Spec
	if s.PEDegradeFrac > 0 {
		m = append(m, mechPEDegrade)
	}
	if s.PEFail {
		m = append(m, mechPEFail)
	}
	if s.ADMARemove > 0 {
		m = append(m, mechADMA)
	}
	if s.ManagerStall {
		m = append(m, mechManager)
	}
	if s.ATMStall > 0 {
		m = append(m, mechATM)
	}
	if s.NoCInflate > 1 {
		m = append(m, mechNoC)
	}
	return m
}

// window is one drawn fault window.
type window struct {
	start, dur sim.Time
	m          mechanism
	kind       config.AccelKind
}

// Attach books the run's fault windows on the kernel. Call once, after
// the targets exist and before the simulation runs. With Rate == 0 (or
// no enabled mechanisms) it schedules nothing and draws nothing,
// keeping the zero-fault run bit-identical to no injector.
//
// Every window is drawn up front, but only one is booked at a time:
// Attach reserves two sequence numbers per window (start, end) and each
// window's start books its own end and the next window's start. Every
// event keeps the (at, seq) key of booking all windows up front, and a
// window is queued until the last one has started, which is what
// Kernel.Every's self-termination relies on.
func (in *Injector) Attach(k *sim.Kernel, tg Targets) {
	if in.attached {
		panic("fault: injector attached twice (one injector per run)")
	}
	in.attached = true
	mechs := in.mechanisms()
	if in.Spec.Rate <= 0 || len(mechs) == 0 {
		return
	}
	arrivals := sim.NewRNG(sim.DeriveSeed(in.seed, "fault/arrivals"))
	durs := sim.NewRNG(sim.DeriveSeed(in.seed, "fault/durations"))
	pick := sim.NewRNG(sim.DeriveSeed(in.seed, "fault/pick"))

	meanGap := sim.Time(float64(sim.Second) / in.Spec.Rate)
	mw := in.Spec.MeanWindow
	if mw <= 0 {
		mw = 200 * sim.Microsecond
	}
	hz := in.Spec.horizon()
	var ws []window
	for t := sim.Time(0); ; {
		gap := arrivals.Exp(meanGap)
		if gap <= 0 {
			gap = sim.Nanosecond
		}
		// Compared before it is added: near the clock's end t+gap
		// would overflow.
		if gap >= hz-t {
			break
		}
		t += gap
		dur := durs.Exp(mw)
		if dur < sim.Microsecond {
			dur = sim.Microsecond
		}
		m := mechs[pick.Intn(len(mechs))]
		kind := config.AccelKind(pick.Intn(int(config.NumAccelKinds)))
		ws = append(ws, window{start: t, dur: dur, m: m, kind: kind})
	}
	if len(ws) == 0 {
		return
	}
	base := k.Reserve(2 * len(ws))
	var open func(i int)
	open = func(i int) {
		w := ws[i]
		seq := base + 2*uint64(i)
		k.AtSeq(w.start, seq, func() {
			in.Stats.Windows++
			in.active++
			sp := tg.Sink.BeginFault(in.windowName(w.m, w.kind))
			in.apply(tg, w.m, w.kind)
			k.AtSeq(w.start+w.dur, seq+1, func() {
				in.active--
				in.revert(tg, w.m, w.kind)
				sp.Seg(obs.SegFault, in.windowName(w.m, w.kind), w.start, k.Now())
				sp.End()
			})
			if i+1 < len(ws) {
				open(i + 1)
			}
		})
	}
	open(0)
}

func (in *Injector) windowName(m mechanism, kind config.AccelKind) string {
	switch m {
	case mechPEDegrade:
		return "fault/pe-degrade/" + kind.String()
	case mechPEFail:
		return "fault/pe-fail/" + kind.String()
	case mechADMA:
		return "fault/adma-remove"
	case mechManager:
		return "fault/manager-stall"
	case mechATM:
		return "fault/atm-stall"
	case mechNoC:
		return "fault/noc-inflate"
	}
	return "fault"
}

func (in *Injector) apply(tg Targets, m mechanism, kind config.AccelKind) {
	switch m {
	case mechPEDegrade:
		in.Stats.PEDegrades++
		in.degradeDepth[kind]++
		if in.degradeDepth[kind] == 1 && tg.Accels[kind] != nil {
			pes := tg.Accels[kind].PEs
			pes.SetOffline(int(math.Ceil(in.Spec.PEDegradeFrac * float64(pes.Nominal()))))
		}
	case mechPEFail:
		in.Stats.PEFails++
		in.failDepth[kind]++
		if in.failDepth[kind] == 1 && tg.Accels[kind] != nil {
			tg.Accels[kind].SetFailed(true)
		}
	case mechADMA:
		in.Stats.ADMARemovals++
		in.admaDepth++
		if in.admaDepth == 1 && tg.DMA != nil {
			tg.DMA.SetOffline(in.Spec.ADMARemove)
		}
	case mechManager:
		in.Stats.ManagerStalls++
		in.mgrDepth++
		if in.mgrDepth == 1 && tg.Manager != nil {
			tg.Manager.SetOffline(tg.Manager.Nominal() - 1)
		}
	case mechATM:
		in.Stats.ATMStalls++
		in.atmDepth++
		if in.atmDepth == 1 && tg.ATM != nil {
			tg.ATM.SetStall(in.Spec.ATMStall)
		}
	case mechNoC:
		in.Stats.NoCInflations++
		in.nocDepth++
		if in.nocDepth == 1 && tg.Net != nil {
			tg.Net.SetLatencyScale(in.Spec.NoCInflate)
		}
	}
}

func (in *Injector) revert(tg Targets, m mechanism, kind config.AccelKind) {
	switch m {
	case mechPEDegrade:
		in.degradeDepth[kind]--
		if in.degradeDepth[kind] == 0 && tg.Accels[kind] != nil {
			tg.Accels[kind].PEs.SetOffline(0)
		}
	case mechPEFail:
		in.failDepth[kind]--
		if in.failDepth[kind] == 0 && tg.Accels[kind] != nil {
			tg.Accels[kind].SetFailed(false)
		}
	case mechADMA:
		in.admaDepth--
		if in.admaDepth == 0 && tg.DMA != nil {
			tg.DMA.SetOffline(0)
		}
	case mechManager:
		in.mgrDepth--
		if in.mgrDepth == 0 && tg.Manager != nil {
			tg.Manager.SetOffline(0)
		}
	case mechATM:
		in.atmDepth--
		if in.atmDepth == 0 && tg.ATM != nil {
			tg.ATM.SetStall(0)
		}
	case mechNoC:
		in.nocDepth--
		if in.nocDepth == 0 && tg.Net != nil {
			tg.Net.SetLatencyScale(1)
		}
	}
}
