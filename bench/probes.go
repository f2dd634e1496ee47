package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"time"

	"accelflow/bench/stats"
	"accelflow/internal/check"
	"accelflow/internal/experiments"
	"accelflow/internal/obs"
	"accelflow/internal/sim"
	"accelflow/internal/workload"
)

// probeResult collects the layer probes' metrics and correctness
// counts. The probes run the same fixed-size inputs on every workload,
// so a layer number moves only when that layer's code does.
type probeResult struct {
	metrics           map[string]metric
	attempted, failed int
}

func (p *probeResult) set(name string, v float64, n int) {
	p.metrics[name] = metric{value: v, n: n}
}

// expect counts one checked outcome.
func (p *probeResult) expect(what string, err error) {
	p.attempted++
	if err != nil {
		p.failed++
		fmt.Fprintf(os.Stderr, "bench: probe %s: %v\n", what, err)
	}
}

// runProbes measures single layers through their public functions.
// None of them runs concurrently with workload traffic.
func runProbes(c *runConfig) (*probeResult, error) {
	p := &probeResult{metrics: map[string]metric{}}
	in := newSimInputs()
	sz := c.size

	var kernel, resource []float64
	for r := 0; r < sz.probeReps; r++ {
		kernel = append(kernel, kernelNsPerEvent(sz.kernelEvents, c.seed))
		resource = append(resource, resourceNsPerDo(sz.resourceDos, c.seed))
	}
	p.set("sim.kernel_ns_per_event", stats.Median(kernel), len(kernel))
	p.set("sim.resource_ns_per_do", stats.Median(resource), len(resource))

	if err := probeSerialSpec(p, in, c); err != nil {
		return nil, err
	}
	if err := probeAttachments(p, in, c); err != nil {
		return nil, err
	}
	if err := probeExport(p, c); err != nil {
		return nil, err
	}
	probeFleet(p, in, c)
	probeSweep(p, c)
	return p, nil
}

// kernelNsPerEvent times Kernel.At and Run over n events. The pending
// population swings between 64 and 1024 events, so the queue converts
// between its heap and ladder forms every few thousand events, and one
// delay in eight lands beyond the ladder's near window.
func kernelNsPerEvent(n int, seed int64) float64 {
	rng := sim.NewRNG(seed)
	delays := make([]sim.Time, n)
	for i := range delays {
		delays[i] = rng.Exp(500 * sim.Nanosecond)
		if rng.Intn(8) == 0 {
			delays[i] = 300*sim.Microsecond + rng.Exp(200*sim.Microsecond)
		}
	}
	k := sim.NewKernel()
	pending, scheduled, grow := 0, 0, true
	var fire func()
	schedule := func() {
		if scheduled < n {
			k.At(k.Now()+delays[scheduled], fire)
			scheduled++
			pending++
		}
	}
	fire = func() {
		pending--
		switch {
		case grow:
			schedule()
			schedule()
			grow = pending < 1024
		case pending <= 64:
			grow = true
			schedule()
		}
	}
	for i := 0; i < 64; i++ {
		schedule()
	}
	t0 := time.Now()
	k.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(k.Processed())
}

// resourceNsPerDo times n Resource.Do calls on a 4-server resource
// kept contended by 8 closed-loop callers, so half the calls queue.
func resourceNsPerDo(n int, seed int64) float64 {
	rng := sim.NewRNG(seed)
	holds := make([]sim.Time, n)
	for i := range holds {
		holds[i] = rng.Exp(sim.Microsecond)
	}
	k := sim.NewKernel()
	r := sim.NewResource(k, "probe", 4, sim.FIFO)
	issued := 0
	var caller func()
	caller = func() {
		if issued < n {
			h := holds[issued]
			issued++
			r.Do(h, caller)
		}
	}
	t0 := time.Now()
	for i := 0; i < 8; i++ {
		caller()
	}
	k.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeSerialSpec runs the sim-serial spec once per seed of its cycle
// and reads the exact per-request counts, allocation and event rate.
func probeSerialSpec(p *probeResult, in simInputs, c *runConfig) error {
	var events, accel, fellBack, timedOut, completed, allocBytes uint64
	var wall time.Duration
	var ms0, ms1 runtime.MemStats
	for i := 0; i < serialSeeds; i++ {
		spec := in.serialSpec(c.size.serialRequests, c.seed+int64(i))
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		res, err := spec.Run()
		wall += time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return err
		}
		p.expect("serial spec", completedAll(res.Completed, c.size.serialRequests))
		events += res.Engine.K.Processed()
		accel += res.AccelCount
		fellBack += res.FellBack
		timedOut += res.TimedOut
		completed += res.Completed
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	reqs := float64(serialSeeds * c.size.serialRequests)
	p.set("sim.events_per_s", float64(events)/wall.Seconds(), serialSeeds)
	p.set("sim.events_per_req", float64(events)/reqs, serialSeeds)
	p.set("sim.alloc_kb_per_req", float64(allocBytes)/1024/reqs, serialSeeds)
	p.set("engine.accel_calls_per_req", float64(accel)/float64(completed), serialSeeds)
	p.set("engine.fallback_frac", float64(fellBack)/float64(completed), serialSeeds)
	p.set("engine.timeout_frac", float64(timedOut)/float64(completed), serialSeeds)
	return nil
}

func completedAll(completed uint64, want int) error {
	if completed != uint64(want) {
		return fmt.Errorf("completed %d of %d requests", completed, want)
	}
	return nil
}

// probeAttachments prices each optional attachment on the sim-serial
// spec: observability, the invariant checker, and the daemon-cold shed
// controller. Runs interleave so drift hits every variant alike. An
// observer or checker must leave the run's digest unchanged.
func probeAttachments(p *probeResult, in simInputs, c *runConfig) error {
	variants := []struct {
		name   string
		attach func(*workload.RunSpec)
	}{
		{"bare", func(*workload.RunSpec) {}},
		{"obs", func(s *workload.RunSpec) { s.Obs = obs.New() }},
		{"check", func(s *workload.RunSpec) { s.Check = check.New() }},
		{"control", func(s *workload.RunSpec) { s.Control = coldControl() }},
	}
	times := make([][]float64, len(variants))
	var bare runDigest
	for r := 0; r < c.size.probeReps; r++ {
		for v, vr := range variants {
			spec := in.serialSpec(c.size.serialRequests, c.seed)
			vr.attach(spec)
			t0 := time.Now()
			res, err := spec.Run()
			times[v] = append(times[v], ms(time.Since(t0)))
			if err != nil {
				p.expect(vr.name+" attachment", err)
				continue
			}
			d := digestOf(res, res.Engine.K.Processed())
			switch vr.name {
			case "bare":
				bare = d
			case "obs", "check":
				// Observing or checking a run never changes its results.
				// The kernel executes extra sampler ticks under obs, so
				// the event count is not part of the comparison.
				d.Events, bare.Events = 0, 0
				if d != bare {
					err = fmt.Errorf("digest %+v differs from the bare run's %+v", d, bare)
				}
			}
			p.expect(vr.name+" attachment", err)
		}
	}
	base := stats.Median(times[0])
	for v, vr := range variants[1:] {
		p.set(vr.name+".overhead_pct", 100*(stats.Median(times[v+1])/base-1), len(times[v+1]))
	}
	return nil
}

// countWriter counts the bytes written through it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}

// probeExport times the two artifact exports of one daemon-cold
// observed run.
func probeExport(p *probeResult, c *runConfig) error {
	spec, sink, err := workload.BuildObserved(workload.ObservedParams{Seed: c.seed, Requests: c.size.jobs.observed, Quick: true})
	if err != nil {
		return err
	}
	if _, err := spec.Run(); err != nil {
		return err
	}
	var traceMs, reportMs []float64
	var traceBytes int64
	for r := 0; r < c.size.probeReps; r++ {
		for _, a := range obs.Artifacts() {
			w := &countWriter{}
			t0 := time.Now()
			err := sink.WriteArtifact(a, w)
			d := ms(time.Since(t0))
			p.expect("export "+string(a), err)
			if a == obs.ArtifactTrace {
				traceMs = append(traceMs, d)
				traceBytes = w.n
			} else {
				reportMs = append(reportMs, d)
			}
		}
	}
	p.set("obs.trace_export_ms", stats.Median(traceMs), len(traceMs))
	p.set("obs.trace_mb", float64(traceBytes)/(1<<20), 1)
	p.set("obs.report_export_ms", stats.Median(reportMs), len(reportMs))
	return nil
}

// withProcs runs f with GOMAXPROCS set to n and restores it after.
func withProcs(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// probeFleet times the sim-parallel fleet at GOMAXPROCS 1 and 2. The
// fleet's results may not depend on the worker schedule.
func probeFleet(p *probeResult, in simInputs, c *runConfig) {
	var one, two []float64
	var events uint64
	var first runDigest
	for r := 0; r < c.size.probeReps; r++ {
		for _, procs := range []int{2, 1} {
			spec := in.fleetSpec(c.size.fleetRequests, c.seed)
			var res *workload.FleetResult
			var err error
			t0 := time.Now()
			withProcs(procs, func() { res, err = spec.Run() })
			d := time.Since(t0).Seconds()
			if err == nil {
				err = completedAll(res.Merged.Completed, c.size.fleetRequests)
			}
			if err == nil {
				dg := digestOf(res.Merged, res.Events)
				if events == 0 {
					first, events = dg, res.Events
				} else if dg != first {
					err = fmt.Errorf("fleet digest %+v at GOMAXPROCS %d differs from %+v", dg, procs, first)
				}
			}
			p.expect("fleet", err)
			if procs == 1 {
				one = append(one, d)
			} else {
				two = append(two, d)
			}
		}
	}
	t2 := stats.Median(two)
	p.set("sim.fleet_events_per_s", float64(events)/t2, len(two))
	p.set("sim.fleet_speedup", stats.Median(one)/t2, len(one))
}

// probeServe measures the serve layer for a workload that never calls
// the daemon: one block of the daemon-cold sequence (three observed
// jobs, six experiments, one tune) on an in-process server, read back
// and checked the way daemon-cold reads and checks its own jobs.
func probeServe(c *runConfig) (*probeResult, error) {
	s, err := setupCold(c)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	win, err := measure(workloadDef{opsPerSecond: coldBlock}, s, rec, time.Second, 1)
	var m map[string]metric
	if err == nil {
		m, err = s.layer(rec, win)
	}
	if err == nil {
		win.failed += s.verify()
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return &probeResult{metrics: m, attempted: len(win.opMs), failed: win.failed}, nil
}

// probeSweep times the quick sweep serially at GOMAXPROCS 1 and with
// two workers at GOMAXPROCS 2; both must give the same Values.
func probeSweep(p *probeResult, c *runConfig) {
	var secs [3]float64
	var digests [3][sha256.Size]byte
	for _, procs := range []int{2, 1} {
		o := experiments.Options{Requests: sweepRequests, Seed: c.seed, Quick: true, Parallelism: procs}
		var outs []experiments.Outcome
		t0 := time.Now()
		withProcs(procs, func() { outs = experiments.RunMany(c.size.sweepIDs, o) })
		secs[procs] = time.Since(t0).Seconds()
		vals := map[string]map[string]float64{}
		var err error
		for _, o := range outs {
			if o.Err != nil {
				err = o.Err
				break
			}
			vals[o.ID] = o.Res.Values
		}
		digests[procs] = valuesDigest(vals)
		p.expect("sweep", err)
	}
	var err error
	if digests[1] != digests[2] {
		err = fmt.Errorf("values differ between 1 and 2 workers")
	}
	p.expect("sweep parallelism", err)
	p.set("experiments.sweep_s", secs[2], 1)
	p.set("experiments.sweep_speedup", secs[1]/secs[2], 1)
}
