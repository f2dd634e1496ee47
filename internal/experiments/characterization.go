package experiments

import (
	"fmt"
	"strings"

	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/metrics"
	"accelflow/internal/services"
	"accelflow/internal/trace"
	"accelflow/internal/workload"
)

// Fig1Breakdown reproduces Fig. 1: the execution-time breakdown of
// SocialNetwork service invocations on a server without accelerators.
// The paper's averages: AppLogic 20.7%; TCP 25.6%, (De)Encr 14.6%, RPC
// 3.2%, (De)Ser 22.4%, (De)Cmp 9.5%, LdB 3.9%.
func Fig1Breakdown(o Options) (*Result, error) {
	res := newResult("fig1")
	res.Linef("Fig. 1 — Non-acc execution time breakdown per service (unloaded)")
	res.Linef("%-8s %9s  %6s %6s %6s %6s %6s %6s %6s",
		"service", "total(us)", "app%", "tcp%", "encr%", "rpc%", "ser%", "cmp%", "ldb%")

	groups := map[string][]config.AccelKind{
		"tcp":  {config.TCP},
		"encr": {config.Encr, config.Decr},
		"rpc":  {config.RPC},
		"ser":  {config.Ser, config.Dser},
		"cmp":  {config.Cmp, config.Dcmp},
		"ldb":  {config.LdB},
	}
	order := []string{"tcp", "encr", "rpc", "ser", "cmp", "ldb"}

	var avgApp float64
	avgTax := map[string]float64{}
	svcs := services.SocialNetwork()
	for _, svc := range svcs {
		run, err := runOne(o, config.Default(), engine.NonAcc(), svc, workload.Poisson{RPS: 100}, o.reqs()/4+50, o.Seed)
		if err != nil {
			return nil, err
		}
		bd := run.Breakdown
		var taxTotal float64
		shares := map[string]float64{}
		for _, name := range order {
			var t float64
			for _, k := range groups[name] {
				t += bd.Tax[k].Micros()
			}
			shares[name] = t
			taxTotal += t
		}
		app := bd.App.Micros()
		busy := app + taxTotal
		row := fmt.Sprintf("%-8s %9.1f  %5.1f%%", svc.Name, run.All.Mean().Micros(),
			100*res.Set(svc.Name+"/app_share", app/busy))
		for _, name := range order {
			row += fmt.Sprintf(" %5.1f%%", 100*shares[name]/busy)
			avgTax[name] += shares[name] / busy
		}
		res.Linef("%s", row)
		avgApp += app / busy
	}
	n := float64(len(svcs))
	row := fmt.Sprintf("%-8s %9s  %5.1f%%", "AVG", "", 100*res.Set("avg/app_share", avgApp/n))
	for _, name := range order {
		row += fmt.Sprintf(" %5.1f%%", 100*res.Set("avg/"+name, avgTax[name]/n))
	}
	res.Linef("%s", row)
	res.Linef("")
	res.Linef("paper: app 20.7%%, tcp 25.6%%, (de)encr 14.6%%, rpc 3.2%%, (de)ser 22.4%%, (de)cmp 9.5%%, ldb 3.9%%")
	return res, nil
}

// Fig3OrchOverhead reproduces Fig. 3: orchestration overhead as a
// fraction of execution time for CPU-Centric, HW-Manager, and Direct
// across load (paper: 25% / 15% at 15 kRPS, Direct far smaller).
func Fig3OrchOverhead(o Options) (*Result, error) {
	res := newResult("fig3")
	res.Linef("Fig. 3 — orchestration overhead fraction vs load")
	loads := []float64{1, 5, 10, 15}
	if o.Quick {
		loads = []float64{5, 15}
	}
	hdr := fmt.Sprintf("%-12s", "arch")
	for _, l := range loads {
		hdr += fmt.Sprintf(" %7.0fk", l)
	}
	res.Linef("%s", hdr)
	pols := []engine.Policy{engine.CPUCentric(), engine.RELIEF(), engine.Direct()}
	svcs := services.SocialNetwork()
	for _, pol := range pols {
		row := fmt.Sprintf("%-12s", pol.Name)
		for _, load := range loads {
			// The mix shares the 36-core server; each service gets a
			// proportional slice of the aggregate load.
			var rateSum float64
			for _, svc := range svcs {
				rateSum += svc.RatekRPS
			}
			var sources []workload.Source
			for _, svc := range svcs {
				sources = append(sources, workload.Source{
					Service:  svc,
					Arrivals: workload.Poisson{RPS: load * 1000 * svc.RatekRPS / rateSum},
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
			bd := run.Breakdown
			frac := bd.Orch.Micros() / (bd.Total().Micros() + bd.Remote.Micros())
			row += fmt.Sprintf("  %5.1f%%", 100*res.Set(fmt.Sprintf("%s/%.0fk", pol.Name, load), frac))
		}
		res.Linef("%s", row)
	}
	res.Linef("")
	res.Linef("paper at 15kRPS: CPU-Centric 25%%, HW-Manager 15%%, Direct lowest")
	return res, nil
}

// Tab1Connectivity reproduces Table I: the source and destination
// accelerators of each accelerator, derived from the trace catalog.
func Tab1Connectivity(Options) (*Result, error) {
	res := newResult("tab1")
	res.Linef("Table I — source/destination accelerators per accelerator")
	res.Linef("%-6s | %-28s | %s", "accel", "sources", "destinations")
	c := trace.NewConnectivity()
	for _, p := range services.Catalog() {
		c.AddProgram(p)
	}
	fmtSet := func(set map[trace.Endpoint]bool) string {
		var names []string
		for _, e := range trace.EndpointList(set) {
			names = append(names, e.String())
		}
		return strings.Join(names, ",")
	}
	for _, k := range config.AllAccelKinds() {
		res.Set(k.String()+"/nsrc", float64(len(c.Sources[k])))
		res.Set(k.String()+"/ndst", float64(len(c.Destinations[k])))
		res.Linef("%-6v | %-28s | %s", k, fmtSet(c.Sources[k]), fmtSet(c.Destinations[k]))
	}
	return res, nil
}

// Q2BranchStats reproduces §III-Q2: the fraction of accelerator
// sequences with at least one conditional, per suite (paper: SocialNet
// 69.2%, HotelReservation 62.5%, MediaServices 82.5%, TrainTicket
// 53.8%).
func Q2BranchStats(Options) (*Result, error) {
	res := newResult("q2")
	res.Linef("Q2 — fraction of accelerator sequences with >=1 conditional")
	cat := map[string]*trace.Program{}
	for _, p := range services.Catalog() {
		cat[p.Name] = p
	}
	hasBranch := func(start string) bool {
		visited := map[string]bool{}
		var any func(string) bool
		any = func(name string) bool {
			if visited[name] {
				return false
			}
			visited[name] = true
			p := cat[name]
			if p == nil {
				return false
			}
			if p.HasBranch() {
				return true
			}
			for _, in := range p.Instrs {
				if (in.Kind == trace.OpTail || in.Kind == trace.OpFork) && any(in.TailName) {
					return true
				}
			}
			return false
		}
		return any(start)
	}
	paper := map[string]float64{"SocialNet": 0.692, "HotelReservation": 0.625, "MediaServices": 0.825, "TrainTicket": 0.538}
	for _, suite := range services.AllSuites() {
		with, total := 0, 0
		for _, svc := range suite.Services {
			for _, st := range svc.Steps {
				var starts []string
				switch st.Kind {
				case engine.StepChain:
					starts = []string{st.Trace}
				case engine.StepParallel:
					starts = st.Par
				}
				for _, s := range starts {
					total++
					if hasBranch(s) {
						with++
					}
				}
			}
		}
		share := float64(with) / float64(total)
		res.Linef("%-18s %5.1f%%   (paper %.1f%%)", suite.Name,
			100*res.Set(suite.Name, share), paper[suite.Name]*100)
	}
	return res, nil
}

// Fig5DataSizes reproduces Fig. 5: min/median/max input and output
// sizes per accelerator (paper: few-KB medians, tails of tens of KB).
func Fig5DataSizes(o Options) (*Result, error) {
	res := newResult("fig5")
	res.Linef("Fig. 5 — input/output data sizes per accelerator (bytes)")
	res.Linef("%-6s %28s %28s", "accel", "input min/med/max", "output min/med/max")
	// Run the full mix under AccelFlow to populate the samplers.
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
	for _, k := range config.AllAccelKinds() {
		if k == config.LdB {
			res.Linef("%-6v %28s %28s", k, "- (no data)", "-")
			continue
		}
		st := run.Engine.Accels[k].Stats
		in := metrics.Sizes(st.InSizes)
		out := metrics.Sizes(st.OutSizes)
		res.Set(k.String()+"/in_median", float64(in.Median))
		res.Set(k.String()+"/in_max", float64(in.Max))
		res.Linef("%-6v %10d/%6d/%9d %10d/%6d/%9d", k, in.Min, in.Median, in.Max, out.Min, out.Median, out.Max)
	}
	return res, nil
}

// Tab2Traces prints Table II: the trace catalog with its disassembly.
func Tab2Traces(Options) (*Result, error) {
	res := newResult("tab2")
	res.Linef("Table II — trace catalog (with ATM subtrace splits)")
	res.Linef("")
	for _, p := range services.Catalog() {
		res.Set(p.Name+"/instrs", float64(len(p.Instrs)))
		for _, line := range strings.Split(strings.TrimRight(p.String(), "\n"), "\n") {
			res.Linef("%s", line)
		}
	}
	return res, nil
}

// Tab3Parameters prints Table III: the modeled architecture parameters.
func Tab3Parameters(Options) (*Result, error) {
	res := newResult("tab3")
	c := config.Default()
	res.Linef("Table III — architectural parameters")
	res.Linef("processor: %.0f cores @ %.1fGHz (%v)", res.Set("cores", float64(c.Cores)), c.CPUFreqGHz, c.Generation)
	res.Linef("accel queues: %d in / %d out entries (%dB each)", c.InputQueueEntries, c.OutputQueueEntries, c.QueueEntryBytes)
	res.Linef("A-DMA engines: %d, PEs/accel: %.0f, scratchpad: %dKB",
		c.ADMAEngines, res.Set("pes", float64(c.PEsPerAccel)), c.ScratchpadKB)
	res.Linef("queue->scratchpad: %v latency, %.0f GB/s", c.QueueToPadLatency, c.QueueToPadGBs)
	res.Linef("notification: %d cycles; mesh: %d cycles/hop, %dB links; inter-chiplet: %d cycles",
		c.NotifyCycles, c.MeshHopCycles, c.MeshLinkBytes, c.InterChipletCycles)
	res.Linef("memory: %d controllers x %.1f GB/s", c.MemCtrls, c.MemGBsPerCtrl)
	speedups := "speedups: "
	for _, k := range config.AllAccelKinds() {
		speedups += fmt.Sprintf("%v %.1f  ", k, c.Speedup[k])
	}
	res.Linef("%s", speedups)
	return res, nil
}

// Tab4Paths reproduces Table IV: the most common execution path and
// accelerator count per service, measured from an actual AccelFlow run.
func Tab4Paths(o Options) (*Result, error) {
	res := newResult("tab4")
	res.Linef("Table IV — most common path and accelerators per invocation")
	res.Linef("%-8s %7s %7s   %s", "service", "paper#", "meas#", "steps")
	for _, svc := range services.SocialNetwork() {
		run, err := runOne(o, config.Default(), engine.AccelFlow(), svc, workload.Poisson{RPS: 200}, o.reqs()/8+40, o.Seed)
		if err != nil {
			return nil, err
		}
		measured := float64(run.AccelCount) / float64(run.Completed)
		var steps []string
		for _, st := range svc.Steps {
			switch st.Kind {
			case engine.StepApp:
				steps = append(steps, "CPU")
			case engine.StepChain:
				steps = append(steps, st.Trace)
			case engine.StepParallel:
				steps = append(steps, fmt.Sprintf("%dx(%s)", len(st.Par), st.Par[0]))
			}
		}
		res.Linef("%-8s %7.0f %7.1f   %s", svc.Name,
			res.Set(svc.Name+"/paper", float64(svc.WantAccels)),
			res.Set(svc.Name+"/measured", measured),
			strings.Join(steps, "-"))
	}
	return res, nil
}
