package experiments

import (
	"fmt"

	"accelflow/internal/config"
	"accelflow/internal/control"
	"accelflow/internal/engine"
	"accelflow/internal/fault"
	"accelflow/internal/services"
	"accelflow/internal/sim"
	"accelflow/internal/workload"
)

// controlSLOUs is the P99 target (microseconds) the three control
// experiments share: comfortably above AccelFlow's unloaded mixed-
// workload P99 (~220-245 us, see fig11/resilience), so the baseline
// attains it and surges or fault bursts are what break it.
const controlSLOUs = 300.0

// surgeScales are the swept load multipliers for the SLO-attainment
// experiment: 1x is the nominal Alibaba-rate mix, the rest are
// surges.
func surgeScales(quick bool) []float64 {
	if quick {
		return []float64{1, 4}
	}
	return []float64{1, 2, 4}
}

// surgeSpec builds one SLO-surge cell: the AccelFlow server under a
// scaled SocialNetwork mix, optionally with the controller attached
// (PE autoscaler against utilization and the shared SLO, plus
// queue-depth load shedding as the last-ditch valve).
func surgeSpec(scale float64, controlled bool, n int, seed int64) *workload.RunSpec {
	spec := &workload.RunSpec{
		Config:  config.Default(),
		Policy:  engine.AccelFlow(),
		Sources: workload.Mix(services.SocialNetwork(), scale, n),
		Seed:    seed,
	}
	if controlled {
		spec.Control = &control.Spec{
			Autoscale: &control.AutoscaleSpec{
				Target:   control.TargetPE,
				UpUtil:   0.60,
				DownUtil: 0.15,
				SLOUs:    controlSLOUs,
				MaxAdd:   8,
			},
			Shed: &control.ShedSpec{Queue: 96},
		}
	}
	return spec
}

// SLOSurge measures SLO attainment under traffic surges, static
// provisioning vs the dynamic controller: attainment (share of served
// requests within the 300 us P99 target), P99, shed share, and scale
// actions per (surge, mode) cell. Deterministic at any parallelism.
func SLOSurge(o Options) (*Result, error) {
	res := newResult("slosurge")
	res.Linef("SLO attainment vs traffic surge — static vs controller (SLO %.0f us)", controlSLOUs)
	scales := surgeScales(o.Quick)
	modes := []struct {
		name       string
		controlled bool
	}{{"static", false}, {"ctl", true}}

	type out struct{ p99, attainPct, shedPct, scaleUps float64 }
	cells := make([]Cell[out], 0, len(scales)*len(modes))
	for _, scale := range scales {
		for _, m := range modes {
			cells = append(cells, Cell[out]{
				Key: fmt.Sprintf("slosurge/%s/x%g", m.name, scale),
				Run: func(seed int64) (out, error) {
					spec := surgeSpec(scale, m.controlled, o.reqs(), seed)
					run, err := o.run(spec)
					if err != nil {
						return out{}, err
					}
					served := run.All.Count()
					attain := 0.0
					if served > 0 {
						attain = 100 * float64(run.All.Below(sim.FromMicros(controlSLOUs))) / float64(served)
					}
					arrivals := float64(served) + float64(run.Shed)
					scaleUps := 0.0
					if run.Control != nil {
						scaleUps = float64(run.Control.ScaleUps)
					}
					return out{
						p99:       run.All.P99().Micros(),
						attainPct: attain,
						shedPct:   100 * float64(run.Shed) / arrivals,
						scaleUps:  scaleUps,
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
	for _, scale := range scales {
		for _, m := range modes {
			key := fmt.Sprintf("%s/x%g", m.name, scale)
			res.Linef("%-6s x%-3g: P99 %8.1f us, attain %6.2f%%, shed %5.2f%%, scale-ups %3.0f",
				m.name, scale,
				res.Set(key+"/p99us", outs[i].p99),
				res.Set(key+"/attain_pct", outs[i].attainPct),
				res.Set(key+"/shed_pct", outs[i].shedPct),
				res.Set(key+"/scaleups", outs[i].scaleUps))
			i++
		}
	}
	res.Linef("controller: PE autoscaler (up 0.60 / down 0.15, +8 ceiling) + queue-96 shedding")
	return res, nil
}

// overprovLoad is the elevated steady load the cost experiment runs
// at: enough pressure that extra PEs matter, below surge collapse.
const overprovLoad = 2.0

// overprovModes are the provisioning strategies compared: static
// fleets with 0/+4/+8 PEs per kind over the default, and the
// autoscaler allowed the same +8 ceiling but paying for it only when
// load demands.
func overprovModes() []struct {
	name   string
	extra  int
	scaled bool
} {
	return []struct {
		name   string
		extra  int
		scaled bool
	}{
		{"static+0", 0, false},
		{"static+4", 4, false},
		{"static+8", 8, false},
		{"autoscale", 0, true},
	}
}

// Overprovision measures the cost-of-overprovisioning curve: P99 and
// provisioned PE capacity (PE-microseconds per served request, the
// exact ServerArea integral summed over every accelerator pool) for
// static headroom vs the autoscaler at the same ceiling.
func Overprovision(o Options) (*Result, error) {
	res := newResult("overprov")
	res.Linef("Cost of overprovisioning at x%g load — provisioned PE-us per request", overprovLoad)
	modes := overprovModes()

	type out struct{ p99, costPEUs, scaleUps float64 }
	cells := make([]Cell[out], 0, len(modes))
	for _, m := range modes {
		cells = append(cells, Cell[out]{
			Key: "overprov/" + m.name,
			Run: func(seed int64) (out, error) {
				cfg := config.Default()
				cfg.PEsPerAccel += m.extra
				spec := &workload.RunSpec{
					Config:  cfg,
					Policy:  engine.AccelFlow(),
					Sources: workload.Mix(services.SocialNetwork(), overprovLoad, o.reqs()),
					Seed:    seed,
				}
				if m.scaled {
					spec.Control = &control.Spec{Autoscale: &control.AutoscaleSpec{
						Target:   control.TargetPE,
						UpUtil:   0.60,
						DownUtil: 0.15,
						SLOUs:    controlSLOUs,
						MaxAdd:   8,
						// Idle pools shrink below base too: the cost curve
						// is the point of allowing it.
						MaxRemove: 4,
					}}
				}
				run, err := o.run(spec)
				if err != nil {
					return out{}, err
				}
				var capArea sim.Time
				for _, kd := range config.AllAccelKinds() {
					capArea += run.Engine.Accels[kd].PEs.ServerArea()
				}
				served := float64(run.All.Count())
				if served == 0 {
					served = 1
				}
				scaleUps := 0.0
				if run.Control != nil {
					scaleUps = float64(run.Control.ScaleUps)
				}
				return out{
					p99:      run.All.P99().Micros(),
					costPEUs: capArea.Micros() / served,
					scaleUps: scaleUps,
				}, nil
			},
		})
	}
	outs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for i, m := range modes {
		res.Linef("%-10s: P99 %8.1f us, capacity %8.1f PE-us/req, scale-ups %3.0f",
			m.name,
			res.Set(m.name+"/p99us", outs[i].p99),
			res.Set(m.name+"/cost_pe_us", outs[i].costPEUs),
			res.Set(m.name+"/scaleups", outs[i].scaleUps))
	}
	res.Linef("capacity integrates configured servers over time, so scaling down is what saves")
	return res, nil
}

// recoveryBurst is the fault burst every recovery cell endures: a
// dense train of degrade/fail windows (expected ~40) confined to the
// first millisecond, harsh enough to breach the SLO at any seed's
// window placement.
func recoveryBurst() *fault.Spec {
	return &fault.Spec{
		Rate:          40000,
		MeanWindow:    150 * sim.Microsecond,
		Horizon:       sim.Millisecond,
		PEDegradeFrac: 0.75,
		PEFail:        true,
	}
}

// Recovery measures recovery time after a fault burst: both modes
// watch the 300 us SLO over a sliding window, but "monitor" may not
// act (zero scale bounds) while "ctl" may scale PE pools up and grant
// retries. Recovery time is how long past the end of the burst the
// last SLO-breaching tick lands.
func Recovery(o Options) (*Result, error) {
	res := newResult("recovery")
	res.Linef("Recovery after a 1 ms fault burst (rate 40000/s) — last SLO breach past burst end")
	burst := recoveryBurst()
	modes := []struct {
		name string
		act  bool
	}{{"monitor", false}, {"ctl", true}}

	// Both modes run the identical (seed-shared) burst and arrival
	// schedule so the controller is the only difference between cells;
	// the per-cell derived seed is deliberately unused.
	shared := sim.DeriveSeed(o.Seed, "recovery/burst")
	type out struct{ recoveryUs, p99, breachTicks, scaleUps float64 }
	cells := make([]Cell[out], 0, len(modes))
	for _, m := range modes {
		cells = append(cells, Cell[out]{
			Key: "recovery/" + m.name,
			Run: func(int64) (out, error) {
				cfg := config.Default()
				cfg.EnqueueBackoff = 200 * sim.Nanosecond
				cfg.TimeoutRearms = 1
				ctl := &control.Spec{Autoscale: &control.AutoscaleSpec{
					// Cores, not PEs: fail windows push work to CPU
					// fallback, so the burst's real bottleneck is the
					// core pool.
					Target:   control.TargetCores,
					UpUtil:   0.60,
					DownUtil: 0.15,
					SLOUs:    controlSLOUs,
				}}
				if m.act {
					ctl.Autoscale.MaxAdd = 16
					ctl.Retry = &control.RetrySpec{Budget: 32}
				}
				spec := &workload.RunSpec{
					Config:  cfg,
					Policy:  engine.AccelFlow(),
					Sources: workload.Mix(services.SocialNetwork(), 1.5, o.reqs()),
					Seed:    shared,
					Faults:  burst,
					Control: ctl,
				}
				run, err := o.run(spec)
				if err != nil {
					return out{}, err
				}
				recovery := 0.0
				if lb := run.Control.LastBreach; lb > burst.Horizon {
					recovery = (lb - burst.Horizon).Micros()
				}
				return out{
					recoveryUs:  recovery,
					p99:         run.All.P99().Micros(),
					breachTicks: float64(run.Control.BreachTicks),
					scaleUps:    float64(run.Control.ScaleUps),
				}, nil
			},
		})
	}
	outs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for i, m := range modes {
		res.Linef("%-8s: recovery %8.1f us, P99 %8.1f us, breach ticks %4.0f, scale-ups %3.0f",
			m.name,
			res.Set(m.name+"/recovery_us", outs[i].recoveryUs),
			res.Set(m.name+"/p99us", outs[i].p99),
			res.Set(m.name+"/breach_ticks", outs[i].breachTicks),
			res.Set(m.name+"/scaleups", outs[i].scaleUps))
	}
	res.Linef("monitor mode shares the controller's tick and windows but has zero scale bounds")
	return res, nil
}
