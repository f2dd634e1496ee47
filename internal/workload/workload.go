// Package workload generates open-loop request arrivals — Poisson
// (Fig. 12's controlled loads), Alibaba-like bursty production traffic
// (Fig. 11), and Azure-like serverless bursts (Fig. 16) — and provides
// the harness that drives an engine with a service mix and collects
// per-service metrics.
package workload

import (
	"math"

	"accelflow/internal/sim"
)

// Arrivals produces inter-arrival times for one service's invocations.
type Arrivals interface {
	// Next returns the gap to the next arrival.
	Next(rng *sim.RNG) sim.Time
}

// Poisson arrivals with the given mean rate.
type Poisson struct {
	RPS float64
}

// Next draws an exponential gap. Rates below one request per second
// are clamped to keep simulated time finite.
func (p Poisson) Next(rng *sim.RNG) sim.Time {
	rps := p.RPS
	if rps < 1 {
		rps = 1
	}
	return rng.Exp(sim.Time(float64(sim.Second) / rps))
}

// Alibaba mimics the production traces' burstiness: a phase-modulated
// Poisson process whose ON windows are aligned to wall-clock
// alibabaPeriod boundaries, so bursts CORRELATE across the services
// sharing a server (production traffic spikes hit every service at
// once). The ON-phase rate is alibabaPeak times the mean; the OFF-phase
// rate is chosen so the long-run mean equals RPS. This is the
// substitution for the real Alibaba traces (DESIGN.md §1): mean rate
// and correlated burstiness are what the orchestrators respond to.
type Alibaba struct {
	RPS float64

	t sim.Time // accumulated arrival time
}

// The Alibaba burst shape.
const (
	alibabaPeak   = 4.8                  // ON-phase rate multiplier
	alibabaOnFrac = 0.2                  // fraction of each period spent ON
	alibabaPeriod = 10 * sim.Millisecond // burst period
)

// Next draws the next inter-arrival gap of the piecewise-Poisson
// process. Draws crossing a phase boundary restart at the boundary
// with the new rate — exact for exponential gaps (memorylessness), and
// necessary so long OFF-phase draws do not skip whole ON windows.
func (a *Alibaba) Next(rng *sim.RNG) sim.Time {
	// Variables, not constants: the float64 arithmetic below must round
	// after every operation, where a constant expression would be
	// evaluated exactly at compile time.
	peak, onFrac := float64(alibabaPeak), float64(alibabaOnFrac)
	offRate := a.RPS * (1 - onFrac*peak) / (1 - onFrac)
	start := a.t
	for {
		pos := a.t % alibabaPeriod
		onEnd := sim.Time(onFrac * float64(alibabaPeriod))
		rate := offRate
		boundary := a.t - pos + alibabaPeriod
		if pos < onEnd {
			rate = a.RPS * peak
			boundary = a.t - pos + onEnd
		}
		if rate < 1 {
			rate = 1
		}
		gap := rng.Exp(sim.Time(float64(sim.Second) / rate))
		if a.t+gap <= boundary {
			a.t += gap
			return a.t - start
		}
		a.t = boundary
	}
}

// Azure mimics serverless invocation traces: heavy-tailed inter-arrival
// gaps (bounded Pareto) producing tight bursts separated by long idle
// periods, normalized to the requested mean rate.
type Azure struct {
	RPS float64
}

// azureAlpha is the Pareto shape of Azure's gaps.
const azureAlpha = 1.3

// Next draws a bounded-Pareto gap with mean 1/RPS.
func (z Azure) Next(rng *sim.RNG) sim.Time {
	alpha := float64(azureAlpha) // a variable, rounding as in Alibaba.Next
	mean := 1.0 / z.RPS          // seconds
	// Bounded Pareto with mean ~= alpha*min/(alpha-1) (max far out).
	min := mean * (alpha - 1) / alpha
	g := rng.Pareto(min, alpha, mean*200)
	return sim.Time(math.Round(g * float64(sim.Second)))
}
