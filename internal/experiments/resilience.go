package experiments

import (
	"fmt"

	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/fault"
	"accelflow/internal/services"
	"accelflow/internal/sim"
	"accelflow/internal/workload"
)

// resiliencePolicies are the four accelerated architectures compared
// under fault injection (Non-acc has no accelerators to fail).
func resiliencePolicies() []engine.Policy {
	return []engine.Policy{
		engine.CPUCentric(),
		engine.RELIEF(),
		engine.Cohort(engine.DefaultCohortPairs()),
		engine.AccelFlow(),
	}
}

// resilienceRates are the swept fault-window arrival rates (windows per
// simulated second). Rate 0 still attaches the injector, pinning the
// zero-overhead contract in the golden values.
func resilienceRates(quick bool) []float64 {
	if quick {
		return []float64{0, 2000}
	}
	return []float64{0, 500, 2000}
}

// resilienceSpec builds one cell's run. Split out so tests can build
// the rate-0 spec and its no-injector twin from the same code path.
// All recovery knobs are on: bounded Enqueue retry backoff and one
// timeout re-arm, so the experiment measures graceful degradation
// rather than raw failure.
func resilienceSpec(pol engine.Policy, rate float64, n int, seed int64) *workload.RunSpec {
	cfg := config.Default()
	cfg.EnqueueBackoff = 200 * sim.Nanosecond
	cfg.TimeoutRearms = 1
	loss := 0.0
	if rate > 0 {
		// Faulty epochs also lose more remote responses; gated on the
		// rate so the rate-0 cells stay bit-identical to no-fault runs.
		loss = 1e-3
	}
	return &workload.RunSpec{
		Config:  cfg,
		Policy:  pol,
		Sources: workload.Mix(services.SocialNetwork(), 1.0, n),
		Seed:    seed,
		Faults:  fault.Mix(rate, 200*sim.Microsecond, loss),
	}
}

// Resilience measures graceful degradation under the fault-injection
// layer: P99 latency, CPU-fallback rate, and timeout rate of the four
// accelerated architectures as the fault-window arrival rate grows.
// One sweep cell per (policy, rate); deterministic at any parallelism.
func Resilience(o Options) (*Result, error) {
	res := newResult("resilience")
	res.Linef("Resilience — P99 us / fallback %% / timeouts per M req vs fault-window rate")
	pols := resiliencePolicies()
	rates := resilienceRates(o.Quick)

	type out struct{ p99, fallbackPct, timeoutsPerM float64 }
	cells := make([]Cell[out], 0, len(pols)*len(rates))
	for _, pol := range pols {
		for _, rate := range rates {
			pol, rate := pol, rate
			cells = append(cells, Cell[out]{
				Key: fmt.Sprintf("resilience/%s/r%g", pol.Name, rate),
				Run: func(seed int64) (out, error) {
					spec := resilienceSpec(pol, rate, o.reqs(), seed)
					run, err := o.run(spec)
					if err != nil {
						return out{}, err
					}
					n := float64(run.Completed)
					if n == 0 {
						n = 1
					}
					return out{
						p99:          run.All.P99().Micros(),
						fallbackPct:  100 * float64(run.FellBack) / n,
						timeoutsPerM: 1e6 * float64(run.TimedOut) / n,
					}, nil
				},
			})
		}
	}
	outs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, pol := range pols {
		for _, rate := range rates {
			key := fmt.Sprintf("%s/r%g", pol.Name, rate)
			res.Linef("%-11s r=%-5g: P99 %8.1f us, fallback %5.2f%%, timeouts %6.1f/M",
				pol.Name, rate,
				res.Set(key+"/p99us", outs[i].p99),
				res.Set(key+"/fallback_pct", outs[i].fallbackPct),
				res.Set(key+"/timeouts_per_m", outs[i].timeoutsPerM))
			i++
		}
	}
	res.Linef("rate 0 attaches the injector disabled: values match a no-fault run exactly")
	return res, nil
}
