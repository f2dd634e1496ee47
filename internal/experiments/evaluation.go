package experiments

import (
	"fmt"
	"math"

	"accelflow/internal/config"
	"accelflow/internal/energy"
	"accelflow/internal/engine"
	"accelflow/internal/metrics"
	"accelflow/internal/services"
	"accelflow/internal/sim"
	"accelflow/internal/workload"
)

// Fig11Latency reproduces Fig. 11: P99 tail and average latency of each
// SocialNetwork service under the five architectures, with Alibaba-like
// production arrival rates. The paper's averages: AccelFlow reduces P99
// over Non-acc/CPU-Centric/RELIEF/Cohort by 90.7/81.2/68.8/70.1% and
// average latency by 77.2/53.9/40.7/37.9%.
func Fig11Latency(o Options) (*Result, error) {
	res := newResult("fig11")
	res.Linef("Fig. 11 — P99 (and mean) latency in us, Alibaba-like rates, full mix")
	pols := architectures()
	svcs := services.SocialNetwork()

	// The whole SocialNetwork mix shares one server (the paper's setup):
	// every service runs at its production rate concurrently. One sweep
	// cell per architecture; merge single-threaded after the join.
	type latencies struct{ p99, mean map[string]float64 }
	cells := make([]Cell[latencies], 0, len(pols))
	for _, pol := range pols {
		pol := pol
		cells = append(cells, Cell[latencies]{
			Key: "fig11/" + pol.Name,
			Run: func(seed int64) (latencies, error) {
				spec := &workload.RunSpec{
					Config:  config.Default(),
					Policy:  pol,
					Sources: workload.Mix(svcs, 1.0, o.reqs()*len(svcs)),
					Seed:    seed,
				}
				run, err := o.run(spec)
				if err != nil {
					return latencies{}, err
				}
				c := latencies{p99: map[string]float64{}, mean: map[string]float64{}}
				for _, svc := range svcs {
					rec := run.PerService[svc.Name]
					c.p99[svc.Name] = rec.P99().Micros()
					c.mean[svc.Name] = rec.Mean().Micros()
				}
				return c, nil
			},
		})
	}
	outs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for i, pol := range pols {
		for _, svc := range svcs {
			res.Set(pol.Name+"/"+svc.Name+"/p99us", outs[i].p99[svc.Name])
			res.Set(pol.Name+"/"+svc.Name+"/meanus", outs[i].mean[svc.Name])
		}
	}
	hdr := fmt.Sprintf("%-8s", "service")
	for _, pol := range pols {
		hdr += fmt.Sprintf(" %22s", pol.Name)
	}
	res.Linef("%s", hdr)
	for _, svc := range svcs {
		row := fmt.Sprintf("%-8s", svc.Name)
		for _, pol := range pols {
			row += fmt.Sprintf(" %12.0f (%7.0f)",
				res.Get(pol.Name+"/"+svc.Name+"/p99us"),
				res.Get(pol.Name+"/"+svc.Name+"/meanus"))
		}
		res.Linef("%s", row)
	}
	// Average per-service reduction of AccelFlow vs the baselines.
	res.Linef("")
	res.Linef("AccelFlow average reduction (per-service mean):")
	for _, pol := range pols {
		if pol.Name == "AccelFlow" {
			continue
		}
		var rp, rm float64
		for _, svc := range svcs {
			rp += 1 - res.Get("AccelFlow/"+svc.Name+"/p99us")/res.Get(pol.Name+"/"+svc.Name+"/p99us")
			rm += 1 - res.Get("AccelFlow/"+svc.Name+"/meanus")/res.Get(pol.Name+"/"+svc.Name+"/meanus")
		}
		rp /= float64(len(svcs))
		rm /= float64(len(svcs))
		res.Linef("  vs %-12s P99 -%5.1f%%   mean -%5.1f%%", pol.Name,
			100*res.Set("reduction_p99/"+pol.Name, rp),
			100*res.Set("reduction_mean/"+pol.Name, rm))
	}
	res.Linef("paper: P99 -90.7/-81.2/-68.8/-70.1%%; mean -77.2/-53.9/-40.7/-37.9%% (Non-acc/CPU-Centric/RELIEF/Cohort)")
	return res, nil
}

// Fig12Loads reproduces Fig. 12: P99 under 5/10/15 kRPS across the
// DeathStarBench apps (paper: AccelFlow's advantage grows with load —
// -55.1/-60.9/-68.3% vs RELIEF).
func Fig12Loads(o Options) (*Result, error) {
	res := newResult("fig12")
	res.Linef("Fig. 12 — P99 (us) vs load, DeathStarBench mix")
	loads := []float64{5, 10, 15}
	if o.Quick {
		loads = []float64{5, 15}
	}
	pols := architectures()
	svcs := svcSubset(o, services.SocialNetwork())
	hdr := fmt.Sprintf("%-12s", "arch")
	for _, l := range loads {
		hdr += fmt.Sprintf(" %9.0fk", l)
	}
	res.Linef("%s", hdr)
	// One cell per (architecture, load); collect per-cell, merge after.
	type pt struct {
		pol  string
		load float64
	}
	var pts []pt
	var cells []Cell[float64]
	for _, pol := range pols {
		for _, load := range loads {
			pol, load := pol, load
			pts = append(pts, pt{pol.Name, load})
			cells = append(cells, Cell[float64]{
				Key: fmt.Sprintf("fig12/%s/%.0fk", pol.Name, load),
				Run: func(seed int64) (float64, error) {
					// Every service of the colocated mix runs at `load`
					// kRPS (the paper's "average loads of 5K, 10K, and
					// 15K RPS").
					var sources []workload.Source
					per := o.reqs()
					for _, svc := range svcs {
						sources = append(sources, workload.Source{
							Service:  svc,
							Arrivals: workload.Poisson{RPS: load * 1000},
							Requests: per,
						})
					}
					spec := &workload.RunSpec{
						Config: config.Default(), Policy: pol,
						Sources: sources, Seed: seed,
					}
					run, err := o.run(spec)
					if err != nil {
						return 0, err
					}
					var avg float64
					for _, svc := range svcs {
						avg += run.PerService[svc.Name].P99().Micros()
					}
					return avg / float64(len(svcs)), nil
				},
			})
		}
	}
	outs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		res.Set(fmt.Sprintf("%s/%.0fk", p.pol, p.load), outs[i])
	}
	for _, pol := range pols {
		row := fmt.Sprintf("%-12s", pol.Name)
		for _, load := range loads {
			row += fmt.Sprintf(" %10.0f", res.Get(fmt.Sprintf("%s/%.0fk", pol.Name, load)))
		}
		res.Linef("%s", row)
	}
	res.Linef("")
	red := "AccelFlow vs RELIEF reduction:"
	for _, load := range loads {
		r := 1 - res.Get(fmt.Sprintf("AccelFlow/%.0fk", load))/res.Get(fmt.Sprintf("RELIEF/%.0fk", load))
		red += fmt.Sprintf("  %.0fk: -%.1f%%", load, 100*res.Set(fmt.Sprintf("reduction/%.0fk", load), r))
	}
	res.Linef("%s", red)
	res.Linef("paper: -55.1%% (5k), -60.9%% (10k), -68.3%% (15k)")
	return res, nil
}

// Fig13Ablation reproduces Fig. 13: the cumulative technique ladder
// RELIEF -> PerAccTypeQ -> Direct -> CntrFlow -> AccelFlow (paper's
// cumulative average P99 reductions: 6.8/32.7/55.1/68.7%).
func Fig13Ablation(o Options) (*Result, error) {
	res := newResult("fig13")
	res.Linef("Fig. 13 — P99 (us) with successive AccelFlow techniques")
	ladder := []engine.Policy{
		engine.RELIEF(), engine.RELIEFPerTypeQ(), engine.Direct(),
		engine.CntrFlow(), engine.AccelFlow(),
	}
	svcs := services.SocialNetwork()
	cells := make([]Cell[map[string]float64], 0, len(ladder))
	for _, pol := range ladder {
		pol := pol
		cells = append(cells, Cell[map[string]float64]{
			Key: "fig13/" + pol.Name,
			Run: func(seed int64) (map[string]float64, error) {
				spec := &workload.RunSpec{
					Config:  config.Default(),
					Policy:  pol,
					Sources: workload.Mix(svcs, 1.0, o.reqs()*len(svcs)),
					Seed:    seed,
				}
				run, err := o.run(spec)
				if err != nil {
					return nil, err
				}
				out := map[string]float64{}
				for _, svc := range svcs {
					out[svc.Name] = run.PerService[svc.Name].P99().Micros()
				}
				return out, nil
			},
		})
	}
	outs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	avg := map[string]float64{}
	for i, pol := range ladder {
		for _, svc := range svcs {
			v := res.Set(pol.Name+"/"+svc.Name, outs[i][svc.Name])
			avg[pol.Name] += v / float64(len(svcs))
		}
	}
	hdr := fmt.Sprintf("%-8s", "service")
	for _, pol := range ladder {
		hdr += fmt.Sprintf(" %12s", pol.Name)
	}
	res.Linef("%s", hdr)
	for _, svc := range svcs {
		row := fmt.Sprintf("%-8s", svc.Name)
		for _, pol := range ladder {
			row += fmt.Sprintf(" %12.0f", res.Get(pol.Name+"/"+svc.Name))
		}
		res.Linef("%s", row)
	}
	res.Linef("")
	cum := "cumulative reduction vs RELIEF:"
	for _, pol := range ladder[1:] {
		r := 1 - avg[pol.Name]/avg["RELIEF"]
		cum += fmt.Sprintf("  %s -%.1f%%", pol.Name, 100*res.Set("reduction/"+pol.Name, r))
	}
	res.Linef("%s", cum)
	res.Linef("paper: PerAccTypeQ -6.8%%, Direct -32.7%%, CntrFlow -55.1%%, AccelFlow -68.7%%")
	return res, nil
}

// Fig14Throughput reproduces Fig. 14: the maximum throughput meeting an
// SLO of 5x the unloaded latency, for the five architectures plus
// Ideal, plus the §IV-C deadline-aware scheduling extension (paper:
// AccelFlow 8.3x Non-acc, 2.2x RELIEF, within 8% of Ideal; EDF +1.6x).
func Fig14Throughput(o Options) (*Result, error) {
	res := newResult("fig14")
	res.Linef("Fig. 14 — max throughput under SLO (kRPS per service)")
	pols := append(architectures(), engine.Ideal(), engine.AccelFlowEDF())
	svcs := svcSubset(o, services.SocialNetwork())
	if o.Quick {
		svcs = svcs[:2]
	}
	hdr := fmt.Sprintf("%-14s", "arch")
	for _, svc := range svcs {
		hdr += fmt.Sprintf(" %8s", svc.Name)
	}
	hdr += fmt.Sprintf(" %9s", "geomean")
	res.Linef("%s", hdr)
	n := o.reqs()
	if n > 1200 {
		n = 1200
	}
	// SLO = 5x the service's unloaded execution time on each system
	// (§VII-A.3 with [15]/[58]'s per-system reading). One cell per
	// (architecture, service): each runs its own unloaded probe and
	// throughput search from a seed derived from its key.
	//
	// Quick mode also trims the probe cost itself: the 40ms sustain
	// floor makes high-RPS probes dominate wall clock, so CI-sized runs
	// cap the per-probe budget and the search ceiling (consistent with
	// Quick trimming loads and services elsewhere).
	sustainCap, hiCap := 6000, 3e6
	if o.Quick {
		sustainCap, hiCap = 2000, 1e6
	}
	var cells []Cell[float64]
	for _, pol := range pols {
		for _, svc := range svcs {
			pol, svc := pol, svc
			cells = append(cells, Cell[float64]{
				Key: "fig14/" + pol.Name + "/" + svc.Name,
				Run: func(seed int64) (float64, error) {
					um, err := unloadedMean(o, config.Default(), pol, svc, seed)
					if err != nil {
						return 0, err
					}
					slo := sim.FromMicros(5 * um)
					measure := func(rps float64) (sim.Time, error) {
						// Sustain the load long enough for queues to
						// reach steady state: at least 40ms of simulated
						// arrivals, capped so extreme probe loads stay
						// tractable.
						reqs := n
						if min := int(rps * 0.04); reqs < min {
							reqs = min
						}
						if reqs > sustainCap {
							reqs = sustainCap
						}
						run, err := runOne(o, config.Default(), pol, svc, workload.Poisson{RPS: rps}, reqs, seed)
						if err != nil {
							return 0, err
						}
						return run.Net.P99(), nil
					}
					tol := 0.08
					if o.Quick {
						tol = 0.2
					}
					return metrics.ThroughputSearch(measure, slo, 2000, hiCap, tol)
				},
			})
		}
	}
	outs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	geo := map[string]float64{}
	for pi, pol := range pols {
		row := fmt.Sprintf("%-14s", pol.Name)
		prod := 1.0
		for si, svc := range svcs {
			max := outs[pi*len(svcs)+si]
			prod *= max
			row += fmt.Sprintf(" %8.0f", res.Set(pol.Name+"/"+svc.Name+"/krps", max/1000))
		}
		geo[pol.Name] = pow(prod, 1/float64(len(svcs)))
		row += fmt.Sprintf(" %9.0f", res.Set(pol.Name+"/geomean_krps", geo[pol.Name]/1000))
		res.Linef("%s", row)
	}
	res.Linef("")
	res.Linef("AccelFlow vs Non-acc %.1fx, vs RELIEF %.1fx, of Ideal %.0f%%; EDF vs FIFO %.2fx",
		res.Set("ratio/nonacc", geo["AccelFlow"]/geo["Non-acc"]),
		res.Set("ratio/relief", geo["AccelFlow"]/geo["RELIEF"]),
		100*res.Set("ratio/ideal", geo["AccelFlow"]/geo["Ideal"]),
		geo["AccelFlow-EDF"]/geo["AccelFlow"])
	res.Linef("paper: 8.3x Non-acc, 2.2x RELIEF, within 8%% of Ideal, EDF +1.6x")
	return res, nil
}

func pow(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, y)
}

// Fig15Coarse reproduces Fig. 15: RELIEF vs AccelFlow maximum
// throughput on the coarse-grained gem5-like image/RNN applications
// (paper: AccelFlow 1.8x RELIEF on average).
func Fig15Coarse(o Options) (*Result, error) {
	res := newResult("fig15")
	res.Linef("Fig. 15 — coarse-grained apps: max throughput (kRPS)")
	apps := services.CoarseApps()
	if o.Quick {
		apps = apps[:2]
	}
	pols := []engine.Policy{engine.RELIEF(), engine.AccelFlow()}
	// The throughput search needs enough sustained load per probe to
	// distinguish the two systems; floor the budget.
	n := o.reqs() / 2
	if n < 400 && !o.Quick {
		n = 400
	}
	if n > 600 {
		n = 600
	}
	// One cell per (app, orchestrator). Both orchestrator cells of an
	// app derive the SLO probe from the app-only key, so they share one
	// SLO: 5x the app's unloaded execution time measured on the
	// AccelFlow system, and a slower orchestrator cannot hide behind a
	// looser SLO.
	var cells []Cell[float64]
	for _, app := range apps {
		for _, pol := range pols {
			app, pol := app, pol
			cells = append(cells, Cell[float64]{
				Key: "fig15/" + app.Name + "/" + pol.Name,
				Run: func(seed int64) (float64, error) {
					cfg := services.CoarseConfig()
					sloSeed := sim.DeriveSeed(o.Seed, "fig15/"+app.Name+"/slo")
					um, err := unloadedMeanCoarse(o, cfg, engine.AccelFlow(), app, sloSeed)
					if err != nil {
						return 0, err
					}
					slo := sim.FromMicros(5 * um)
					measure := func(rps float64) (sim.Time, error) {
						spec := &workload.RunSpec{
							Config:   cfg,
							Policy:   pol,
							Sources:  workload.SingleService(app, workload.Poisson{RPS: rps}, n),
							Seed:     seed,
							Programs: services.CoarseCatalog(),
							Remote:   map[string]engine.RemoteKind{},
						}
						run, err := o.run(spec)
						if err != nil {
							return 0, err
						}
						return run.All.P99(), nil
					}
					tol := 0.1
					if o.Quick {
						tol = 0.25
					}
					return metrics.ThroughputSearch(measure, slo, 500, 5e5, tol)
				},
			})
		}
	}
	outs, err := RunCells(o, cells)
	if err != nil {
		return nil, err
	}
	res.Linef("%-12s %10s %10s %7s", "app", "RELIEF", "AccelFlow", "ratio")
	var ratioSum float64
	for ai, app := range apps {
		max := map[string]float64{}
		for pi, pol := range pols {
			max[pol.Name] = outs[ai*len(pols)+pi]
		}
		ratio := max["AccelFlow"] / max["RELIEF"]
		ratioSum += ratio
		res.Linef("%-12s %10.1f %10.1f %6.2fx", app.Name,
			max["RELIEF"]/1000, max["AccelFlow"]/1000, res.Set(app.Name+"/ratio", ratio))
	}
	res.Linef("")
	res.Linef("average AccelFlow/RELIEF = %.2fx (paper: 1.8x)",
		res.Set("avg_ratio", ratioSum/float64(len(apps))))
	return res, nil
}

func unloadedMeanCoarse(o Options, cfg *config.Config, pol engine.Policy, app *services.Service, seed int64) (float64, error) {
	spec := &workload.RunSpec{
		Config:   cfg,
		Policy:   pol,
		Sources:  workload.SingleService(app, workload.Poisson{RPS: 20}, 40),
		Seed:     seed,
		Programs: services.CoarseCatalog(),
		Remote:   map[string]engine.RemoteKind{},
	}
	run, err := o.run(spec)
	if err != nil {
		return 0, err
	}
	return run.All.Mean().Micros(), nil
}

// Fig16Serverless reproduces Fig. 16: per-function P99 for Non-acc,
// RELIEF, and AccelFlow with Azure-like bursty invocations (paper:
// AccelFlow -37% vs RELIEF on average).
func Fig16Serverless(o Options) (*Result, error) {
	res := newResult("fig16")
	res.Linef("Fig. 16 — serverless P99 (us), Azure-like bursts")
	pols := []engine.Policy{engine.NonAcc(), engine.RELIEF(), engine.AccelFlow()}
	fns := services.Serverless()
	if o.Quick {
		fns = fns[:3]
	}
	hdr := fmt.Sprintf("%-8s", "func")
	for _, pol := range pols {
		hdr += fmt.Sprintf(" %12s", pol.Name)
	}
	res.Linef("%s", hdr)
	// All functions are colocated on one server (§VII-A.5).
	for _, pol := range pols {
		var sources []workload.Source
		for _, fn := range fns {
			sources = append(sources, workload.Source{
				Service:  fn,
				Arrivals: workload.Azure{RPS: fn.RatekRPS * 1000},
				Requests: o.reqs(),
			})
		}
		spec := &workload.RunSpec{
			Config: config.Default(), Policy: pol,
			Sources: sources, Seed: o.Seed,
		}
		run, err := o.run(spec)
		if err != nil {
			return nil, err
		}
		for _, fn := range fns {
			res.Set(pol.Name+"/"+fn.Name, run.PerService[fn.Name].P99().Micros())
		}
	}
	for _, fn := range fns {
		row := fmt.Sprintf("%-8s", fn.Name)
		for _, pol := range pols {
			row += fmt.Sprintf(" %12.0f", res.Get(pol.Name+"/"+fn.Name))
		}
		res.Linef("%s", row)
	}
	var r float64
	for _, fn := range fns {
		r += 1 - res.Get("AccelFlow/"+fn.Name)/res.Get("RELIEF/"+fn.Name)
	}
	r /= float64(len(fns))
	res.Linef("")
	res.Linef("AccelFlow vs RELIEF: -%.1f%% average (paper: -37%%)",
		100*res.Set("reduction_vs_relief", r))
	return res, nil
}

// Fig17Components reproduces Fig. 17: the components of an unloaded
// AccelFlow execution — CPU, accelerators, orchestration (paper: 2.2%
// average), and communication.
func Fig17Components(o Options) (*Result, error) {
	res := newResult("fig17")
	res.Linef("Fig. 17 — AccelFlow execution time components (unloaded)")
	res.Linef("%-8s %6s %7s %6s %6s", "service", "cpu%", "accel%", "orch%", "comm%")
	var orchAvg float64
	svcs := services.SocialNetwork()
	for _, svc := range svcs {
		run, err := runOne(o, config.Default(), engine.AccelFlow(), svc, workload.Poisson{RPS: 50}, o.reqs()/8+40, o.Seed)
		if err != nil {
			return nil, err
		}
		bd := run.Breakdown
		tot := bd.Total().Micros()
		res.Linef("%-8s %5.1f%% %6.1f%% %5.1f%% %5.1f%%", svc.Name,
			100*bd.CPU.Micros()/tot, 100*bd.Accel.Micros()/tot,
			100*res.Set(svc.Name+"/orch_share", bd.Orch.Micros()/tot),
			100*bd.Comm.Micros()/tot)
		orchAvg += bd.Orch.Micros() / tot
	}
	orchAvg /= float64(len(svcs))
	res.Linef("")
	res.Linef("average orchestration share %.1f%% (paper: 2.2%%; RELIEF ~10%%)",
		100*res.Set("avg_orch_share", orchAvg))
	return res, nil
}

// GlueInstructions reproduces §VII-B.2: output-dispatcher instruction
// counts (paper: ~15 typical, ~18 average, ~50 worst case).
func GlueInstructions(o Options) (*Result, error) {
	res := newResult("glue")
	res.Linef("§VII-B.2 — output dispatcher glue instructions")
	spec := &workload.RunSpec{
		Config:  config.Default(),
		Policy:  engine.AccelFlow(),
		Sources: workload.Mix(services.SocialNetwork(), 0.3, o.reqs()),
		Seed:    o.Seed,
	}
	run, err := o.run(spec)
	if err != nil {
		return nil, err
	}
	var instrs, passes uint64
	res.Linef("%-6s %10s %10s %8s", "accel", "passes", "instrs", "mean")
	for _, k := range config.AllAccelKinds() {
		st := run.Engine.Accels[k].Stats
		instrs += st.GlueInstrs
		passes += st.GluePasses
		res.Linef("%-6v %10d %10d %8.1f", k, st.GluePasses, st.GlueInstrs, st.MeanGlueInstrs())
	}
	mean := float64(instrs) / float64(passes)
	res.Linef("")
	res.Linef("mean instructions per dispatcher operation: %.1f (paper: 18)",
		res.Set("mean_instrs", mean))
	return res, nil
}

// AccelUtilization reproduces §VII-B.4: accelerator utilization at high
// load (paper: TCP 92%, (De)Encr 82%, RPC 68%, (De)Ser 73%, (De)Cmp
// 38%, LdB 71%).
func AccelUtilization(o Options) (*Result, error) {
	res := newResult("util")
	res.Linef("§VII-B.4 — accelerator utilization near peak")
	// Load the mix close to the AccelFlow saturation point.
	spec := &workload.RunSpec{
		Config:  config.Default(),
		Policy:  engine.AccelFlow(),
		Sources: workload.Mix(services.SocialNetwork(), 3.1, o.reqs()*2),
		Seed:    o.Seed,
	}
	run, err := o.run(spec)
	if err != nil {
		return nil, err
	}
	for _, k := range config.AllAccelKinds() {
		u := run.Engine.Accels[k].PEs.Utilization(run.Elapsed)
		res.Linef("%-6v %5.1f%%", k, 100*res.Set(k.String(), u))
	}
	res.Linef("paper: TCP 92%%, (De)Encr 82%%, RPC 68%%, (De)Ser 73%%, (De)Cmp 38%%, LdB 71%%")
	return res, nil
}

// EnergyReport reproduces §VII-B.5: energy vs Non-acc (paper: -74%),
// performance per watt (7.2x Non-acc, 2.1x RELIEF), and the 2.4MB of
// queue memory.
func EnergyReport(o Options) (*Result, error) {
	res := newResult("energy")
	res.Linef("§VII-B.5 — power, energy, and memory")
	pm := energy.DefaultPower()
	type row struct {
		name string
		rep  energy.Report
		done uint64
	}
	var rows []row
	for _, pol := range []engine.Policy{engine.NonAcc(), engine.RELIEF(), engine.AccelFlow()} {
		spec := &workload.RunSpec{
			Config:  config.Default(),
			Policy:  pol,
			Sources: workload.Mix(services.SocialNetwork(), 1.0, o.reqs()*2),
			Seed:    o.Seed,
		}
		run, err := o.run(spec)
		if err != nil {
			return nil, err
		}
		rep := energy.Integrate(pm, run.Engine, run.Elapsed)
		rows = append(rows, row{pol.Name, rep, run.Completed})
		res.Linef("%-10s energy %8.3fJ  avg power %6.1fW  perf/W %8.2f req/s/W",
			pol.Name, res.Set(pol.Name+"/energyJ", rep.TotalJ()), rep.AvgPowerW(),
			res.Set(pol.Name+"/perfperW", energy.PerfPerWatt(run.Completed, rep)))
	}
	af, na, rl := rows[2], rows[0], rows[1]
	eRed := 1 - af.rep.TotalJ()/na.rep.TotalJ()
	res.Linef("")
	res.Linef("energy vs Non-acc: -%.1f%% (paper -74%%)", 100*res.Set("energy_reduction", eRed))
	res.Linef("perf/W: %.1fx Non-acc (paper 7.2x), %.1fx RELIEF (paper 2.1x)",
		energyRatio(af, na), energyRatio(af, rl))
	res.Linef("AccelFlow queue memory: %.1f MB (paper 2.4MB)",
		res.Set("queue_mb", float64(energy.QueueMemoryBytes(config.Default()))/1e6))
	return res, nil
}

func energyRatio(a, b struct {
	name string
	rep  energy.Report
	done uint64
}) float64 {
	pa := energy.PerfPerWatt(a.done, a.rep)
	pb := energy.PerfPerWatt(b.done, b.rep)
	if pb == 0 {
		return 0
	}
	return pa / pb
}

// HighOverheadEvents reproduces §VII-B.6: the frequency of CPU
// fallbacks (overflow-full 1.4% avg / 5.9% peak), page faults, TCP
// timeouts (3.2 per million requests), and TLB misses.
func HighOverheadEvents(o Options) (*Result, error) {
	res := newResult("events")
	res.Linef("§VII-B.6 — high-overhead event frequency")
	for _, load := range []struct {
		name  string
		scale float64
	}{{"production", 1.0}, {"peak", 3.0}} {
		spec := &workload.RunSpec{
			Config:  config.Default(),
			Policy:  engine.AccelFlow(),
			Sources: workload.Mix(services.SocialNetwork(), load.scale, o.reqs()*2),
			Seed:    o.Seed,
		}
		run, err := o.run(spec)
		if err != nil {
			return nil, err
		}
		e := run.Engine
		var invocations, overflows, tlbA, tlbM, faults uint64
		for _, k := range config.AllAccelKinds() {
			st := e.Accels[k].Stats
			invocations += st.Invocations
			overflows += st.Overflows
			tlbA += e.Accels[k].TLB.Accesses
			tlbM += e.Accels[k].TLB.Misses
			faults += e.Accels[k].TLB.PageFaults
		}
		fallbackPct := 100 * float64(e.Stats.FallbacksQueue+overflows) / float64(invocations+1)
		res.Linef("%-10s: overflow/fallback %5.2f%% of invocations; timeouts %.1f/M req; page faults %.2f/M invocations; TLB miss %.2f%%",
			load.name,
			res.Set(load.name+"/fallback_pct", fallbackPct),
			res.Set(load.name+"/timeouts_per_m", 1e6*float64(e.Stats.Timeouts)/float64(run.Completed+1)),
			1e6*float64(faults)/float64(invocations+1),
			100*float64(tlbM)/float64(tlbA+1))
	}
	res.Linef("paper: overflow 1.4%% avg / 5.9%% peak; TCP timeouts 3.2/M; page faults 0.13/M instr")
	return res, nil
}
