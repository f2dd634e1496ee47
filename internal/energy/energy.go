// Package energy reproduces the paper's McPAT-derived area accounting
// (§VI) and the activity-based power/energy model (§VII-B.5). The area
// constants are the paper's published numbers; energy integrates the
// simulator's activity counters.
package energy

import (
	"fmt"

	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/sim"
)

// AreaMM2 is a silicon area in mm^2 at 7nm.
type AreaMM2 float64

// AreaReport reproduces the §VI area accounting.
type AreaReport struct {
	Cores       AreaMM2 // cores + private caches
	LLC         AreaMM2
	CoreNetwork AreaMM2

	Accelerators map[config.AccelKind]AreaMM2
	Queues       AreaMM2 // input/output queues + dispatchers
	ADMA         AreaMM2
	AccelNetwork AreaMM2
}

// Area returns the paper's numbers: a 122.3mm^2 baseline processor,
// 44.9mm^2 of accelerators, 3.4mm^2 of queues/dispatchers, 1.3mm^2 of
// A-DMA engines, and 0.4mm^2 of accelerator network.
func Area() AreaReport {
	acc := map[config.AccelKind]AreaMM2{
		config.Ser:  0.6,
		config.Dser: 0.9,
		config.Cmp:  9.1,
		config.Dcmp: 5.2,
		// TCP and (De)Encr estimated as Cmp-sized; RPC and LdB as
		// Dser-sized (§VI).
		config.TCP:  9.1,
		config.Encr: 9.1, // Encr and Decr each sized like Cmp, which
		config.Decr: 9.1, // reproduces the paper's 44.9mm2 total

		config.RPC: 0.9,
		config.LdB: 0.9,
	}
	return AreaReport{
		Cores:        83.1,
		LLC:          38.2,
		CoreNetwork:  1.0,
		Accelerators: acc,
		Queues:       3.4,
		ADMA:         1.3,
		AccelNetwork: 0.4,
	}
}

// BaselineTotal is the processor area without accelerators.
func (a AreaReport) BaselineTotal() AreaMM2 { return a.Cores + a.LLC + a.CoreNetwork }

// AccelTotal sums the accelerator ASIC areas in AccelKind order, so
// the floating-point sum does not depend on map iteration order.
func (a AreaReport) AccelTotal() AreaMM2 {
	var s AreaMM2
	for _, k := range config.AllAccelKinds() {
		s += a.Accelerators[k]
	}
	return s
}

// OrchestrationTotal sums AccelFlow's added structures beyond the
// accelerators themselves.
func (a AreaReport) OrchestrationTotal() AreaMM2 { return a.Queues + a.ADMA + a.AccelNetwork }

// AccelFraction is the share of total SoC area taken by accelerators
// plus orchestration (the paper reports 29.0% combined, 26.1%
// accelerators alone, 2.9% AccelFlow overhead).
func (a AreaReport) AccelFraction() (combined, accelOnly, overhead float64) {
	total := float64(a.BaselineTotal() + a.AccelTotal() + a.OrchestrationTotal())
	combined = float64(a.AccelTotal()+a.OrchestrationTotal()) / total
	accelOnly = float64(a.AccelTotal()) / total
	overhead = float64(a.OrchestrationTotal()) / total
	return
}

// QueueMemoryBytes is the extra SRAM AccelFlow adds for queues: the
// paper reports 2.4MB per server (9 accelerators x 128 entries x
// ~2.1KB).
func QueueMemoryBytes(cfg *config.Config) int {
	return int(config.NumAccelKinds) * (cfg.InputQueueEntries + cfg.OutputQueueEntries) * cfg.QueueEntryBytes
}

// PowerModel holds the power/energy coefficients. Accelerator and
// orchestration maxima are the paper's (12.5W and 5.0W); the rest are
// plausible server-class constants used for relative comparisons.
type PowerModel struct {
	CoreActiveW   float64 // per busy core
	CoreIdleW     float64 // per idle core
	AccelMaxW     float64 // all accelerators at full load (paper: 12.5)
	OrchMaxW      float64 // queues/dispatchers/DMA/ATM at full load (paper: 5.0)
	ServerMaxW    float64 // whole server (paper: accelerators are 3.1%)
	UncoreStaticW float64
}

// DefaultPower returns the calibrated model.
func DefaultPower() PowerModel {
	return PowerModel{
		CoreActiveW:   7.5,
		CoreIdleW:     1.2,
		AccelMaxW:     12.5,
		OrchMaxW:      5.0,
		ServerMaxW:    400,
		UncoreStaticW: 55,
	}
}

// Report is the integrated energy of one simulation run.
type Report struct {
	Elapsed       sim.Time
	CoreEnergyJ   float64
	AccelEnergyJ  float64
	OrchEnergyJ   float64
	StaticEnergyJ float64
}

// TotalJ sums the components.
func (r Report) TotalJ() float64 {
	return r.CoreEnergyJ + r.AccelEnergyJ + r.OrchEnergyJ + r.StaticEnergyJ
}

// AvgPowerW is the mean power draw over the run.
func (r Report) AvgPowerW() float64 {
	s := r.Elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return r.TotalJ() / s
}

// Integrate computes a run's energy from the engine's activity: core
// busy time, accelerator busy time (as a fraction of max), and
// orchestration activity (dispatcher passes, DMA transfers, manager).
func Integrate(pm PowerModel, e *engine.Engine, elapsed sim.Time) Report {
	cfg := e.Cfg
	secs := elapsed.Seconds()
	rep := Report{Elapsed: elapsed}

	coreBusy := e.Cores.BusyTime.Seconds()
	coreIdle := secs*float64(cfg.Cores) - coreBusy
	if coreIdle < 0 {
		coreIdle = 0
	}
	rep.CoreEnergyJ = coreBusy*pm.CoreActiveW + coreIdle*pm.CoreIdleW

	// Accelerators: busy fraction of the whole ensemble times max power.
	var accelBusy float64
	for _, kd := range config.AllAccelKinds() {
		accelBusy += e.Accels[kd].Stats.BusyTime.Seconds()
	}
	// PE-seconds of the whole ensemble; with the default uniform mix
	// (TotalPEs == NumAccelKinds*PEsPerAccel) this reduces to exactly
	// the pre-PEMix formula, so default-config energy bytes are
	// unchanged.
	ensembleSeconds := secs * float64(cfg.TotalPEs())
	if ensembleSeconds > 0 {
		rep.AccelEnergyJ = pm.AccelMaxW * secs * (accelBusy / ensembleSeconds) *
			float64(cfg.TotalPEs()) / float64(config.NumAccelKinds)
	}

	// Orchestration: dispatcher + DMA + manager busy time against the
	// orchestration power budget.
	var orchBusy float64
	for _, kd := range config.AllAccelKinds() {
		orchBusy += e.Accels[kd].OutDisp.BusyTime.Seconds()
	}
	orchBusy += e.Manager.BusyTime.Seconds()
	orchSeconds := secs * float64(config.NumAccelKinds+1)
	if orchSeconds > 0 {
		rep.OrchEnergyJ = pm.OrchMaxW * secs * (orchBusy / orchSeconds) * 4
	}

	rep.StaticEnergyJ = pm.UncoreStaticW * secs
	return rep
}

// PerfPerWatt returns completed requests per joule-second (throughput
// per watt), the paper's §VII-B.5 comparison metric.
func PerfPerWatt(completed uint64, rep Report) float64 {
	if rep.Elapsed <= 0 || rep.AvgPowerW() == 0 {
		return 0
	}
	rps := float64(completed) / rep.Elapsed.Seconds()
	return rps / rep.AvgPowerW()
}

// FormatArea renders the §VI table.
func FormatArea(a AreaReport) string {
	comb, accel, over := a.AccelFraction()
	return fmt.Sprintf(
		"baseline %.1fmm2 (cores %.1f, LLC %.1f, net %.1f)\n"+
			"accelerators %.1fmm2, queues+dispatchers %.1fmm2, A-DMA %.1fmm2, accel net %.1fmm2\n"+
			"accel+orchestration %.1f%% of SoC (accel %.1f%%, AccelFlow overhead %.1f%%)",
		float64(a.BaselineTotal()), float64(a.Cores), float64(a.LLC), float64(a.CoreNetwork),
		float64(a.AccelTotal()), float64(a.Queues), float64(a.ADMA), float64(a.AccelNetwork),
		comb*100, accel*100, over*100)
}
