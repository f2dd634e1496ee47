package experiments

import (
	"fmt"
	"strings"

	"accelflow/internal/config"
	"accelflow/internal/energy"
	"accelflow/internal/engine"
	"accelflow/internal/services"
	"accelflow/internal/workload"
)

// avgP99 runs the full SocialNetwork mix on one server at Alibaba-like
// rates (the paper's setup) and returns the average per-service P99 in
// microseconds. The seed comes from the caller's sweep cell, not from
// Options, so cells stay independent of each other.
func avgP99(o Options, cfg *config.Config, pol engine.Policy, seed int64) (float64, error) {
	svcs := services.SocialNetwork()
	spec := &workload.RunSpec{
		Config:  cfg,
		Policy:  pol,
		Sources: workload.Mix(svcs, 1.0, o.reqs()*len(svcs)),
		Seed:    seed,
	}
	run, err := o.run(spec)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, svc := range svcs {
		sum += run.PerService[svc.Name].P99().Micros()
	}
	return sum / float64(len(svcs)), nil
}

// Fig18Chiplets reproduces Fig. 18: P99 under the five chiplet
// organizations (paper: 2->6 chiplets raises tail latency by 14%).
func Fig18Chiplets(o Options) (*Result, error) {
	res := newResult("fig18")
	res.Linef("Fig. 18 — P99 (us) by chiplet organization (AccelFlow)")
	plans := config.AllChipletPlans()
	cells := make([]Cell[float64], 0, len(plans))
	for _, plan := range plans {
		plan := plan
		cells = append(cells, Cell[float64]{
			Key: "fig18/" + plan.String(),
			Run: func(seed int64) (float64, error) {
				cfg := config.Default()
				if err := cfg.ApplyChipletPlan(plan); err != nil {
					return 0, err
				}
				return avgP99(o, cfg, engine.AccelFlow(), seed)
			},
		})
	}
	outs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for i, plan := range plans {
		res.Linef("%-10v %10.0f", plan, res.Set(plan.String(), outs[i]))
	}
	if v2, v6 := res.Get("2-chiplet"), res.Get("6-chiplet"); v2 > 0 {
		res.Linef("")
		res.Linef("6- vs 2-chiplet: +%.1f%% (paper +14%%)", 100*res.Set("increase_6v2", v6/v2-1))
	}
	return res, nil
}

// Sens2InterChiplet reproduces §VII-C.2: inter-chiplet latency swept
// from 20 to 100 cycles for the 2- and 6-chiplet designs (paper: 60 ->
// 100 cycles on 6 chiplets raises tail latency 45%).
func Sens2InterChiplet(o Options) (*Result, error) {
	res := newResult("sens2")
	res.Linef("§VII-C.2 — P99 (us) vs inter-chiplet latency (cycles)")
	lats := []int{20, 60, 100}
	if o.Quick {
		lats = []int{60, 100}
	}
	hdr := fmt.Sprintf("%-10s", "plan")
	for _, l := range lats {
		hdr += fmt.Sprintf(" %8dcy", l)
	}
	res.Linef("%s", hdr)
	plans := []config.ChipletPlan{config.TwoChiplets, config.SixChiplets}
	var cells []Cell[float64]
	for _, plan := range plans {
		for _, lat := range lats {
			plan, lat := plan, lat
			cells = append(cells, Cell[float64]{
				Key: fmt.Sprintf("sens2/%v/%dcy", plan, lat),
				Run: func(seed int64) (float64, error) {
					cfg := config.Default()
					if err := cfg.ApplyChipletPlan(plan); err != nil {
						return 0, err
					}
					cfg.InterChipletCycles = lat
					return avgP99(o, cfg, engine.AccelFlow(), seed)
				},
			})
		}
	}
	outs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for pi, plan := range plans {
		row := fmt.Sprintf("%-10v", plan)
		for li, lat := range lats {
			row += fmt.Sprintf(" %10.0f", res.Set(fmt.Sprintf("%v/%dcy", plan, lat), outs[pi*len(lats)+li]))
		}
		res.Linef("%s", row)
	}
	if v60, v100 := res.Get("6-chiplet/60cy"), res.Get("6-chiplet/100cy"); v60 > 0 {
		res.Linef("")
		res.Linef("6-chiplet 60->100 cycles: +%.1f%% (paper +45%%)",
			100*res.Set("increase_6c_100v60", v100/v60-1))
	}
	return res, nil
}

// Fig19PECount reproduces Fig. 19: P99 with 2/4/8 PEs per accelerator,
// plus the fallback shares the paper quotes (16%/39% of Encr requests
// denied at 4/2 PEs; tail +20.0%/+35.7%).
func Fig19PECount(o Options) (*Result, error) {
	res := newResult("fig19")
	res.Linef("Fig. 19 — P99 (us) and fallbacks by PEs per accelerator")
	res.Linef("%-6s %10s %12s", "PEs", "p99(us)", "fallback%")
	peCounts := []int{8, 4, 2}
	type peStats struct{ p99, fb float64 }
	cells := make([]Cell[peStats], 0, len(peCounts))
	for _, pes := range peCounts {
		pes := pes
		cells = append(cells, Cell[peStats]{
			Key: fmt.Sprintf("fig19/%dpe", pes),
			Run: func(seed int64) (peStats, error) {
				cfg := config.Default()
				cfg.PEsPerAccel = pes
				svcs := services.SocialNetwork()
				spec := &workload.RunSpec{
					Config:  cfg,
					Policy:  engine.AccelFlow(),
					Sources: workload.Mix(svcs, 1.0, o.reqs()*len(svcs)),
					Seed:    seed,
				}
				run, err := o.run(spec)
				if err != nil {
					return peStats{}, err
				}
				var p99sum float64
				for _, svc := range svcs {
					p99sum += run.PerService[svc.Name].P99().Micros()
				}
				var invocations, overflows uint64
				for _, k := range config.AllAccelKinds() {
					invocations += run.Engine.Accels[k].Stats.Invocations
					overflows += run.Engine.Accels[k].Stats.Overflows
				}
				return peStats{
					p99: p99sum / float64(len(svcs)),
					fb:  100 * float64(run.Engine.Stats.FallbacksQueue+overflows) / float64(invocations+1),
				}, nil
			},
		})
	}
	outs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for i, pes := range peCounts {
		res.Linef("%-6d %10.0f %11.2f%%", pes,
			res.Set(fmt.Sprintf("%dpe/p99us", pes), outs[i].p99),
			res.Set(fmt.Sprintf("%dpe/fallback_pct", pes), outs[i].fb))
	}
	if v8 := res.Get("8pe/p99us"); v8 > 0 {
		res.Linef("")
		res.Linef("tail increase: 4 PEs +%.1f%% (paper +20.0%%), 2 PEs +%.1f%% (paper +35.7%%)",
			100*res.Set("increase_4pe", res.Get("4pe/p99us")/v8-1),
			100*res.Set("increase_2pe", res.Get("2pe/p99us")/v8-1))
	}
	return res, nil
}

// Fig20Generations reproduces Fig. 20: P99 for Non-acc, RELIEF, and
// AccelFlow across processor generations (paper: AccelFlow's advantage
// over RELIEF grows from 68.8% on Ice Lake to 71.7% on Emerald Rapids).
func Fig20Generations(o Options) (*Result, error) {
	res := newResult("fig20")
	res.Linef("Fig. 20 — P99 (us) across processor generations")
	gens := config.AllGenerations()
	if o.Quick {
		gens = []config.Generation{config.Haswell, config.IceLake, config.EmeraldRapids}
	}
	pols := []engine.Policy{engine.NonAcc(), engine.RELIEF(), engine.AccelFlow()}
	hdr := fmt.Sprintf("%-16s", "generation")
	for _, pol := range pols {
		hdr += fmt.Sprintf(" %12s", pol.Name)
	}
	hdr += fmt.Sprintf(" %10s", "AF v RELIEF")
	res.Linef("%s", hdr)
	var cells []Cell[float64]
	for _, g := range gens {
		for _, pol := range pols {
			g, pol := g, pol
			cells = append(cells, Cell[float64]{
				Key: fmt.Sprintf("fig20/%v/%s", g, pol.Name),
				Run: func(seed int64) (float64, error) {
					cfg := config.Default()
					cfg.Generation = g
					return avgP99(o, cfg, pol, seed)
				},
			})
		}
	}
	outs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for gi, g := range gens {
		row := fmt.Sprintf("%-16v", g)
		vals := map[string]float64{}
		for pi, pol := range pols {
			v := res.Set(fmt.Sprintf("%v/%s", g, pol.Name), outs[gi*len(pols)+pi])
			vals[pol.Name] = v
			row += fmt.Sprintf(" %12.0f", v)
		}
		red := 1 - vals["AccelFlow"]/vals["RELIEF"]
		row += fmt.Sprintf("  -%8.1f%%", 100*res.Set(fmt.Sprintf("%v/reduction", g), red))
		res.Linef("%s", row)
	}
	res.Linef("")
	res.Linef("paper: -68.8%% on IceLake growing to -71.7%% on EmeraldRapids")
	return res, nil
}

// Sens5Speedups reproduces §VII-C.5: scaling all accelerator speedups
// by 0.25x..4x (paper: AccelFlow's win over RELIEF grows from 1.4x at
// 0.25x speedups to 3.9x at 4x).
func Sens5Speedups(o Options) (*Result, error) {
	res := newResult("sens5")
	res.Linef("§VII-C.5 — AccelFlow vs RELIEF P99 ratio as accelerator speedups scale")
	scales := []float64{0.25, 0.5, 1, 2, 4}
	if o.Quick {
		scales = []float64{0.25, 1, 4}
	}
	res.Linef("%-8s %12s %12s %8s", "scale", "RELIEF", "AccelFlow", "gain")
	pols := []engine.Policy{engine.RELIEF(), engine.AccelFlow()}
	var cells []Cell[float64]
	for _, s := range scales {
		for _, pol := range pols {
			s, pol := s, pol
			cells = append(cells, Cell[float64]{
				Key: fmt.Sprintf("sens5/%.2fx/%s", s, pol.Name),
				Run: func(seed int64) (float64, error) {
					cfg := config.Default()
					cfg.SpeedupScale = s
					return avgP99(o, cfg, pol, seed)
				},
			})
		}
	}
	outs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for si, s := range scales {
		rl, af := outs[si*2], outs[si*2+1]
		res.Linef("%-8.2f %12.0f %12.0f %7.2fx", s, rl, af,
			res.Set(fmt.Sprintf("%.2fx/gain", s), rl/af))
	}
	res.Linef("")
	res.Linef("paper: 1.4x at 0.25x speedups, 2.2x at 1x, 3.9x at 4x")
	return res, nil
}

// AreaAccounting reproduces §VI's area table.
func AreaAccounting(Options) (*Result, error) {
	res := newResult("area")
	a := energy.Area()
	res.Linef("§VI — area accounting (7nm)")
	for _, line := range strings.Split(strings.TrimRight(energy.FormatArea(a), "\n"), "\n") {
		res.Linef("%s", line)
	}
	comb, accel, over := a.AccelFraction()
	res.Linef("combined %.1f%%, accelerators %.1f%%, overhead %.1f%% of %.0f mm2 accel area",
		100*res.Set("combined_frac", comb),
		100*res.Set("accel_frac", accel),
		100*res.Set("overhead_frac", over),
		res.Set("accel_mm2", float64(a.AccelTotal())))
	res.Linef("paper: combined 29.0%%, accelerators 26.1%%, AccelFlow overhead <=2.9%%")
	return res, nil
}
