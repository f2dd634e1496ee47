// Package config holds the architectural parameter sets of the modeled
// server (paper Table III), the processor-generation variants (§VII-C.4),
// the chiplet organizations (§VII-C.1), the literature accelerator
// speedups (§VI), and the calibrated CPU cost model for datacenter-tax
// operations.
package config

import (
	"fmt"
	"math"

	"accelflow/internal/sim"
)

// AccelKind identifies one of the nine accelerator types of the ensemble
// (paper §III). The order matters: it is the 4-bit encoding used inside
// binary traces.
type AccelKind uint8

const (
	TCP AccelKind = iota
	Encr
	Decr
	RPC
	Ser
	Dser
	Cmp
	Dcmp
	LdB
	NumAccelKinds
)

var accelNames = [NumAccelKinds]string{
	"TCP", "Encr", "Decr", "RPC", "Ser", "Dser", "Cmp", "Dcmp", "LdB",
}

// String returns the paper's name for the accelerator kind.
func (a AccelKind) String() string {
	if a < NumAccelKinds {
		return accelNames[a]
	}
	return fmt.Sprintf("Accel(%d)", uint8(a))
}

// AllAccelKinds lists the nine kinds in encoding order.
func AllAccelKinds() []AccelKind {
	out := make([]AccelKind, NumAccelKinds)
	for i := range out {
		out[i] = AccelKind(i)
	}
	return out
}

// Generation identifies a modeled CPU microarchitecture (paper §VII-C.4).
type Generation int

const (
	Haswell Generation = iota
	Skylake
	IceLake // the paper's default
	SapphireRapids
	EmeraldRapids
)

var genNames = []string{"Haswell", "Skylake", "IceLake", "SapphireRapids", "EmeraldRapids"}

func (g Generation) String() string { return genNames[g] }

// AllGenerations lists the modeled generations oldest-first.
func AllGenerations() []Generation {
	return []Generation{Haswell, Skylake, IceLake, SapphireRapids, EmeraldRapids}
}

// genScale captures the paper's observation that newer generations speed
// up application logic more than datacenter-tax operations (§VII-C.4).
type genScale struct {
	app float64 // speedup of app-logic CPU time relative to IceLake
	tax float64 // speedup of tax-op CPU time relative to IceLake
}

var genScales = map[Generation]genScale{
	Haswell:        {app: 0.68, tax: 0.82},
	Skylake:        {app: 0.85, tax: 0.92},
	IceLake:        {app: 1.00, tax: 1.00},
	SapphireRapids: {app: 1.16, tax: 1.06},
	EmeraldRapids:  {app: 1.27, tax: 1.10},
}

// Config is the complete parameter set for one simulated server. The
// zero value is not usable; start from Default() and override.
type Config struct {
	// Processor (Table III, "Processor Parameters").
	Cores      int     // 36 six-issue cores
	CPUFreqGHz float64 // 2.4 GHz
	Generation Generation

	// AccelFlow structures (Table III, "AccelFlow Parameters").
	InputQueueEntries  int      // 64
	OutputQueueEntries int      // 64
	ADMAEngines        int      // 10
	PEsPerAccel        int      // 8
	ScratchpadKB       int      // 64 per PE
	QueueToPadLatency  sim.Time // 10 ns
	QueueToPadGBs      float64  // 100 GB/s
	NotifyCycles       int      // 80 cycles accelerator -> core
	MeshHopCycles      int      // 3 cycles per intra-chiplet hop
	MeshLinkBytes      int      // 16B links
	InterChipletCycles int      // 60 cycles
	InterChipletGBs    float64  // deliberate deviation from Table III's
	// 1 Gb/s per link; see DESIGN.md §4.

	// Queue entry geometry (§IV-A).
	InlineDataBytes int // 2KB inline per queue entry
	QueueEntryBytes int // 2.1KB total per entry (§VI area discussion)

	// Memory hierarchy (Table III + §V-3).
	LLCLatency    sim.Time // 36-cycle slice round trip, converted
	DRAMLatency   sim.Time
	MemCtrls      int      // 4
	MemGBsPerCtrl float64  // 102.4 GB/s
	TLBHitRate    float64  // probability an accel TLB access hits
	IOMMUWalk     sim.Time // miss service time via IOMMU
	PageFaultRate float64  // faults per accelerator invocation
	PageFaultCost sim.Time // OS handling, CPU involved

	// Dispatcher cost model (§VII-B.2): RISC-like instruction counts,
	// executed at one instruction per cycle.
	DispBaseInstrs      int // ~15 typical output-dispatcher pass
	DispBranchInstrs    int // +7 to resolve a branch
	DispEndInstrs       int // 12..20 for end-of-trace handling (use mid)
	DispTransformInstrs int // +12 for a 2KB payload transformation

	// Orchestration mechanics.
	EnqueueCost      sim.Time // user-mode Enqueue instruction (AccelFlow)
	InterruptCost    sim.Time // CPU interrupt entry+exit (CPU-Centric)
	ManagerHop       sim.Time // RELIEF manager per-completion processing (~1.5us, §VII-A.1)
	ManagerDispatch  sim.Time // RELIEF manager programming one accelerator at chain submit
	ManagerWidth     int      // concurrent completions the manager engine handles
	SWQueueHop       sim.Time // Cohort polled software-queue hop cost on a core
	SWQueuePickup    sim.Time // polling interval before a core notices a software-queue entry
	PollPickupDelay  sim.Time // delay until a polling core observes a user-level notification
	ATMReadLatency   sim.Time // output dispatcher reading the next trace from the ATM
	EnqueueRetries   int      // attempts before CPU fallback (§IV-A)
	EnqueueBackoff   sim.Time // base delay before an Enqueue retry, doubling per attempt (0 = immediate retry)
	OverflowEntries  int      // per-input-queue overflow area capacity
	TCPTimeout       sim.Time // armed response-trace timeout (§IV-B)
	TimeoutRearms    int      // re-arm attempts after a TCP timeout before giving up (0 = none)
	TenantTraceLimit int      // N concurrent traces per tenant (§IV-D)
	ScratchWipe      sim.Time // PE state clear between tenants (§IV-D)

	// Chiplet organization (§VII-C.1): maps each accelerator kind to a
	// chiplet index. Chiplet 0 is always the core chiplet (with LdB).
	ChipletOf [NumAccelKinds]int
	Chiplets  int

	// PEMix optionally overrides PEsPerAccel per accelerator kind: a
	// positive entry sets that kind's PE-pool size, zero falls back to
	// the uniform PEsPerAccel. The autotuner searches over this field
	// to size each pool to the workload instead of provisioning every
	// kind identically. Read through PEsFor, never directly.
	PEMix [NumAccelKinds]int

	// Accelerator speedups over CPU for the op's compute (paper §VI).
	Speedup [NumAccelKinds]float64
	// SpeedupScale multiplies all accelerator speedups (§VII-C.5).
	SpeedupScale float64

	// Cost model: CPU time of each tax op = Base + PerByte*size,
	// at IceLake reference speed (before generation scaling).
	OpBase    [NumAccelKinds]sim.Time
	OpPerByte [NumAccelKinds]sim.Time // per byte of payload

	// Payload/data-shape model.
	CmpRatio    float64 // compressed size / original size
	SerOverhead float64 // serialized size / in-memory size

	// Remote side of nested RPCs / DB messages (DESIGN.md §4).
	RemoteRTT     sim.Time // network round trip to the peer
	RemoteDBTime  sim.Time // storage service time
	RemoteSvcTime sim.Time // downstream microservice time
}

// Default returns the paper's base configuration: a 36-core
// IceLake-like processor with two chiplets (cores+LdB, and the other
// eight accelerators), Table III parameters, and literature speedups.
func Default() *Config {
	c := &Config{
		Cores:      36,
		CPUFreqGHz: 2.4,
		Generation: IceLake,

		InputQueueEntries:  64,
		OutputQueueEntries: 64,
		ADMAEngines:        10,
		PEsPerAccel:        8,
		ScratchpadKB:       64,
		QueueToPadLatency:  10 * sim.Nanosecond,
		QueueToPadGBs:      100,
		NotifyCycles:       80,
		MeshHopCycles:      3,
		MeshLinkBytes:      16,
		InterChipletCycles: 60,
		InterChipletGBs:    3.5,

		InlineDataBytes: 2048,
		QueueEntryBytes: 2150,

		LLCLatency:    sim.FromNanos(15),
		DRAMLatency:   sim.FromNanos(80),
		MemCtrls:      4,
		MemGBsPerCtrl: 102.4,
		TLBHitRate:    0.985,
		IOMMUWalk:     sim.FromNanos(180),
		PageFaultRate: 1.3e-6,
		PageFaultCost: 5 * sim.Microsecond,

		DispBaseInstrs:      15,
		DispBranchInstrs:    7,
		DispEndInstrs:       16,
		DispTransformInstrs: 12,

		EnqueueCost:      sim.FromNanos(60),
		InterruptCost:    sim.FromNanos(1450),
		ManagerHop:       sim.FromNanos(1500),
		ManagerDispatch:  sim.FromNanos(400),
		ManagerWidth:     16,
		SWQueueHop:       sim.FromNanos(1150),
		SWQueuePickup:    sim.FromNanos(3000),
		PollPickupDelay:  sim.FromNanos(250),
		ATMReadLatency:   sim.FromNanos(25),
		EnqueueRetries:   3,
		OverflowEntries:  256,
		TCPTimeout:       10 * sim.Millisecond,
		TenantTraceLimit: 64,
		ScratchWipe:      sim.FromNanos(120),

		Chiplets: 2,

		SpeedupScale: 1.0,
		CmpRatio:     0.42,
		SerOverhead:  1.15,

		RemoteRTT:     18 * sim.Microsecond,
		RemoteDBTime:  9 * sim.Microsecond,
		RemoteSvcTime: 25 * sim.Microsecond,
	}

	// Two-chiplet base layout: LdB with the cores (chiplet 0),
	// everything else on the accelerator chiplet (1).
	for k := range c.ChipletOf {
		c.ChipletOf[k] = 1
	}
	c.ChipletOf[LdB] = 0

	// Literature speedups (§VI): F4T 3.5 (TCP), QTLS 6.6 ((De)Encr),
	// Cerebros 20.5 (RPC), ProtoAcc 3.8 ((De)Ser), CDPU 4.1/15.2
	// (Dcmp/Cmp), Intel DLB 8.1 (LdB).
	c.Speedup = [NumAccelKinds]float64{
		TCP: 3.5, Encr: 6.6, Decr: 6.6, RPC: 20.5,
		Ser: 3.8, Dser: 3.8, Cmp: 15.2, Dcmp: 4.1, LdB: 8.1,
	}

	// CPU cost of each tax op at IceLake (calibrated against the Fig. 1
	// breakdown: TCP and (De)Ser dominate, then (De)Encr, (De)Cmp, LdB,
	// RPC). Units: base time plus per-byte time.
	base := func(us float64) sim.Time { return sim.FromMicros(us) }
	perB := func(ns float64) sim.Time { return sim.FromNanos(ns) }
	c.OpBase = [NumAccelKinds]sim.Time{
		TCP: base(2.6), Encr: base(1.0), Decr: base(1.0), RPC: base(0.7),
		Ser: base(1.4), Dser: base(1.6), Cmp: base(2.2), Dcmp: base(1.9),
		LdB: base(1.4),
	}
	c.OpPerByte = [NumAccelKinds]sim.Time{
		TCP: perB(1.7), Encr: perB(1.3), Decr: perB(1.3), RPC: perB(0.12),
		Ser: perB(2.0), Dser: perB(2.2), Cmp: perB(2.6), Dcmp: perB(1.4),
		LdB: 0,
	}
	return c
}

// Clone returns a deep copy (Config has no reference fields, so a value
// copy suffices, but Clone documents intent at call sites).
func (c *Config) Clone() *Config {
	cp := *c
	return &cp
}

// PEsFor returns the PE-pool size of one accelerator kind: the
// per-kind PEMix override when set, else the uniform PEsPerAccel.
func (c *Config) PEsFor(k AccelKind) int {
	if n := c.PEMix[k]; n > 0 {
		return n
	}
	return c.PEsPerAccel
}

// TotalPEs sums the PE pools across the ensemble.
func (c *Config) TotalPEs() int {
	total := 0
	for k := AccelKind(0); k < NumAccelKinds; k++ {
		total += c.PEsFor(k)
	}
	return total
}

// CyclePS returns the duration of one CPU clock cycle.
func (c *Config) CyclePS() sim.Time {
	return sim.Time(math.Round(1000.0 / c.CPUFreqGHz))
}

// Cycles converts a cycle count to simulated time.
func (c *Config) Cycles(n int) sim.Time { return sim.Time(n) * c.CyclePS() }

// AppScale returns the app-logic speed multiplier of the configured
// generation relative to IceLake.
func (c *Config) AppScale() float64 { return genScales[c.Generation].app }

// TaxScale returns the tax-op speed multiplier of the configured
// generation relative to IceLake.
func (c *Config) TaxScale() float64 { return genScales[c.Generation].tax }

// CPUCost returns the CPU time to run the given tax op over a payload
// of the given size on the configured generation.
func (c *Config) CPUCost(k AccelKind, bytes int) sim.Time {
	t := c.OpBase[k] + sim.Time(bytes)*c.OpPerByte[k]
	return sim.Time(float64(t) / c.TaxScale())
}

// AccelCost returns the PE compute time for the op: the paper's C/S
// abstraction, using the IceLake-reference CPU cost divided by the
// (scaled) literature speedup. Accelerator hardware does not speed up
// with CPU generation.
func (c *Config) AccelCost(k AccelKind, bytes int) sim.Time {
	cpu := c.OpBase[k] + sim.Time(bytes)*c.OpPerByte[k]
	s := c.Speedup[k] * c.SpeedupScale
	if s < 1e-9 {
		s = 1e-9
	}
	return sim.Time(math.Round(float64(cpu) / s))
}

// AppCost scales a nominal app-logic duration by the generation's
// app-logic speed.
func (c *Config) AppCost(nominal sim.Time) sim.Time {
	return sim.Time(float64(nominal) / c.AppScale())
}

// DispatcherTime converts a RISC instruction count to time at one
// instruction per cycle (§VII-B.2).
func (c *Config) DispatcherTime(instrs int) sim.Time { return c.Cycles(instrs) }

// NotifyLatency is the accelerator-to-core user-level notification cost.
func (c *Config) NotifyLatency() sim.Time { return c.Cycles(c.NotifyCycles) }

// Validate checks internal consistency and returns a descriptive error
// for the first violated constraint.
func (c *Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("config: Cores must be positive, got %d", c.Cores)
	case c.CPUFreqGHz <= 0:
		return fmt.Errorf("config: CPUFreqGHz must be positive, got %v", c.CPUFreqGHz)
	case c.PEsPerAccel <= 0:
		return fmt.Errorf("config: PEsPerAccel must be positive, got %d", c.PEsPerAccel)
	case c.InputQueueEntries <= 0 || c.OutputQueueEntries <= 0:
		return fmt.Errorf("config: queue entries must be positive")
	case c.OverflowEntries <= 0:
		return fmt.Errorf("config: OverflowEntries must be positive, got %d", c.OverflowEntries)
	case c.ADMAEngines <= 0:
		return fmt.Errorf("config: ADMAEngines must be positive, got %d", c.ADMAEngines)
	case c.ManagerWidth <= 0:
		return fmt.Errorf("config: ManagerWidth must be positive, got %d", c.ManagerWidth)
	case c.TenantTraceLimit <= 0:
		return fmt.Errorf("config: TenantTraceLimit must be positive, got %d", c.TenantTraceLimit)
	case c.EnqueueRetries < 0:
		return fmt.Errorf("config: EnqueueRetries must be non-negative, got %d", c.EnqueueRetries)
	case c.TLBHitRate < 0 || c.TLBHitRate > 1:
		return fmt.Errorf("config: TLBHitRate must be in [0,1], got %v", c.TLBHitRate)
	case c.Chiplets <= 0:
		return fmt.Errorf("config: Chiplets must be positive, got %d", c.Chiplets)
	case c.SpeedupScale <= 0:
		return fmt.Errorf("config: SpeedupScale must be positive, got %v", c.SpeedupScale)
	case c.EnqueueBackoff < 0:
		return fmt.Errorf("config: EnqueueBackoff must be non-negative, got %v", c.EnqueueBackoff)
	case c.TimeoutRearms < 0:
		return fmt.Errorf("config: TimeoutRearms must be non-negative, got %d", c.TimeoutRearms)
	case c.TCPTimeout <= 0:
		return fmt.Errorf("config: TCPTimeout must be positive, got %v", c.TCPTimeout)
	case c.TCPTimeout <= c.RemoteRTT:
		// Every remote wait is at least one RTT, so a timeout at or
		// below it would fire on every armed trace — a run that only
		// measures its own timeout path.
		return fmt.Errorf("config: TCPTimeout (%v) must exceed RemoteRTT (%v)", c.TCPTimeout, c.RemoteRTT)
	}
	for k := AccelKind(0); k < NumAccelKinds; k++ {
		if c.PEMix[k] < 0 {
			return fmt.Errorf("config: PEMix[%v] must be non-negative, got %d", k, c.PEMix[k])
		}
		if c.Speedup[k] <= 0 {
			return fmt.Errorf("config: Speedup[%v] must be positive", k)
		}
		if c.ChipletOf[k] < 0 || c.ChipletOf[k] >= c.Chiplets {
			return fmt.Errorf("config: ChipletOf[%v]=%d out of range [0,%d)", k, c.ChipletOf[k], c.Chiplets)
		}
	}
	if c.ChipletOf[LdB] != 0 {
		return fmt.Errorf("config: LdB must live on the core chiplet (0), got %d", c.ChipletOf[LdB])
	}
	return nil
}
