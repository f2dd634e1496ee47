package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accelflow/bench/stats"
)

// workloadDef is one benchmark traffic mix. setup builds its inputs (or
// starts its daemon) and finishes one warm-up operation; setup_s
// times exactly that.
type workloadDef struct {
	name  string
	setup func(c *runConfig) (session, error)
	// opsPerSecond, when set, makes a window of d seconds a fixed
	// opsPerSecond·d operations instead of a fixed time.
	opsPerSecond float64
}

// workloads are the benchmark's traffic mixes, in BENCHMARK.json's
// order. README.md gives the reasons for each; in short, sim-serial
// loads the simulator's serial hot path alone, sim-parallel the two
// parallel layers (the sweep pool and the sharded kernel), daemon-cold
// the daemon's compute and export path, and daemon-hot its cache-read
// path.
var workloads = []workloadDef{
	{"sim-serial", setupSerial, 0},
	{"sim-parallel", setupParallel, 0},
	{"daemon-cold", setupCold, coldJobsPerSecond},
	{"daemon-hot", setupHot, hotJobsPerSecond},
}

func workloadByName(name string) workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	panic("bench: unknown workload " + name)
}

// session is one set-up workload, ready to run operations.
type session interface {
	// clients is how many goroutines drive operations (at most 2).
	clients() int
	// op runs operation i and returns an error when it failed or its
	// outputs were wrong.
	op(env opEnv, i int) error
	// kind names operation i's kind; op times are summarized per kind
	// (stats.MixMedian).
	kind(i int) string
	// pid names the process doing the work for /proc: "self", or the
	// daemon's pid.
	pid() string
	// verify runs the checks that need a reference computed after the
	// measured window, and returns how many operations failed them.
	verify() int
	// layer returns the per-layer metrics the session measured from its
	// own operations in window w, traced into rec; runTraced takes the
	// serve metrics of a session that reports none from probeServe.
	layer(rec *recorder, w window) (map[string]metric, error)
	close() error
}

// opEnv is what an operation runs with: the span recorder (nil when
// untraced) and the index of the goroutine driving it.
type opEnv struct {
	rec    *recorder
	client int
}

// sizes fixes the amount of work every operation and probe does. The
// command line always uses fullSize; tests shrink it.
type sizes struct {
	setups         int      // setups timed for setup_s
	slices         int      // calibrated slices per measured window
	serialRequests int      // requests per sim-serial run
	fleetRequests  int      // requests per fleet run
	sweepIDs       []string // experiments in one sweep
	kernelEvents   int      // events in the kernel probe
	resourceDos    int      // Resource.Do calls in the resource probe
	probeReps      int      // repeats of each timed probe
	jobs           jobShape // requests per daemon job of each type
}

var fullSize = sizes{
	setups:         9,
	slices:         20,
	serialRequests: 2500,
	fleetRequests:  9000,
	sweepIDs:       []string{"fig11", "fig12", "fig13", "fig18", "fig19", "fig20", "sens2", "sens5"},
	kernelEvents:   1_000_000,
	resourceDos:    500_000,
	probeReps:      5,
	// Observed jobs simulate 150 requests: accelsimd keeps about 5 MB
	// per finished observed job of that size, which puts daemon-cold's
	// peak near 0.5 GB; 300-request jobs double that, and the run-to-run
	// spread of every daemon-cold metric with it.
	jobs: jobShape{observed: 150, experiment: 40, tune: 100},
}

// runConfig is one benchmark invocation.
type runConfig struct {
	seed      int64
	seconds   time.Duration
	trace     bool
	accelsimd string // daemon binary for untraced daemon workloads
	root      string // repository root
	size      sizes
}

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; the manifest test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics. An "op" is one sim-serial
// run, one sim-parallel round (a sweep then a fleet run) or one daemon
// job from submit to its last GET; op_ms_p50 is their mix median
// (stats.MixMedian) over the daemon's job kinds, and ops_per_s is the
// operations the clients completed per second of the window. rss_mb is
// the median over the window's slices of the working process's peak
// resident set within the slice: the peak of a whole run is set by a
// single moment of GC timing and varied by 10% between runs of
// sim-parallel, the median of the slices' peaks by 2%.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "op_ms_p50", unit: "ms"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "cpu_ms_per_op", unit: "ms"},
	{name: "rss_mb", unit: "MiB"},
}

// perLayer are the traced run's metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "sim.kernel_ns_per_event", unit: "ns"},
		{name: "sim.resource_ns_per_do", unit: "ns"},
		{name: "sim.events_per_s", unit: "events/s"},
		{name: "sim.events_per_req", unit: "events"},
		{name: "sim.alloc_kb_per_req", unit: "KiB"},
		{name: "sim.fleet_events_per_s", unit: "events/s"},
		{name: "sim.fleet_speedup", unit: "x"},
		{name: "engine.accel_calls_per_req", unit: "calls"},
		{name: "engine.fallback_frac", unit: "frac"},
		{name: "engine.timeout_frac", unit: "frac"},
		{name: "obs.overhead_pct", unit: "%"},
		{name: "obs.trace_export_ms", unit: "ms"},
		{name: "obs.trace_mb", unit: "MiB"},
		{name: "obs.report_export_ms", unit: "ms"},
		{name: "check.overhead_pct", unit: "%"},
		{name: "control.overhead_pct", unit: "%"},
		{name: "experiments.sweep_s", unit: "s"},
		{name: "experiments.sweep_speedup", unit: "x"},
		{name: "experiments.cells_per_s", unit: "cells/s"},
		{name: "serve.submit_ms_p50", unit: "ms"},
		{name: "serve.artifact_ms_p50", unit: "ms"},
		{name: "serve.queue_ms_p50", unit: "ms"},
		{name: "serve.exec_ms_p50.observed", unit: "ms"},
		{name: "serve.exec_ms_p50.experiment", unit: "ms"},
		{name: "serve.exec_ms_p50.tune", unit: "ms"},
		{name: "serve.cache_hit_ratio", unit: "frac"},
		{name: "serve.rss_kb_per_job", unit: "KiB"},
		{name: "runtime.gc_cpu_frac", unit: "frac"},
		{name: "runtime.heap_peak_mb", unit: "MiB"},
	}
	for _, p := range cpuPackages {
		defs = append(defs, metricDef{name: "cpu_share." + p, unit: "%"})
	}
	return append(defs, metricDef{name: "bench.trace_overhead_pct", unit: "%"})
}()

// window is what one measured stretch of operations produced.
type window struct {
	opMs    []float64 // raw operation times
	opKinds []string
	failed  int
	elapsed time.Duration // time with operations running
	cpu     time.Duration // CPU time the working process spent then

	// refMs are the reference-loop CPU times taken between the window's
	// slices and steal each slice's stolen share of CPU time (see
	// calibrate.go); normMs, normCPUMs and normSeconds are opMs, cpu and
	// elapsed at the nominal host speed, each slice scaled by the
	// reference loop's speed on either side of it.
	refMs       []float64
	steal       []float64
	normMs      []float64
	normCPUMs   float64
	normSeconds float64
	// rssMB holds each slice's peak resident set of the working
	// process.
	rssMB []float64
}

// maxLoggedErrors bounds the failed operations echoed to stderr.
const maxLoggedErrors = 5

// measure runs operations on s.clients() goroutines, each starting its
// next operation as soon as the previous one ends (a closed loop),
// for d, or, for a workload with a fixed rate, for its
// opsPerSecond·d operations. The window is cut into slices; the
// reference loop runs before the first slice and after each one, while
// no operation is in flight.
func measure(w workloadDef, s session, rec *recorder, d time.Duration, nslices int) (window, error) {
	limit := int(w.opsPerSecond * d.Seconds())
	var win window
	var next atomic.Int64
	before, err := calibrate(&win.refMs)
	if err != nil {
		return window{}, err
	}
	for k := 1; k <= nslices; k++ {
		sliceLimit := -1 // no limit: run for the slice's time
		if limit > 0 {
			sliceLimit = limit * k / nslices
		}
		first, elapsed0 := len(win.opMs), win.elapsed
		// Slice k ends once operations have run for k/nslices of d in all,
		// so an operation longer than a slice does not stretch the window.
		budget := time.Duration(k)*d/time.Duration(nslices) - win.elapsed
		cpu, steal, err := win.slice(s, rec, budget, sliceLimit, &next)
		if err != nil {
			return window{}, err
		}
		if len(win.opMs) == first {
			continue
		}
		if err := quiesce(s.pid()); err != nil {
			return window{}, err
		}
		after, err := calibrate(&win.refMs)
		if err != nil {
			return window{}, err
		}
		speed := nominalScale(before, after)
		wall := speed * (1 - steal)
		for _, x := range win.opMs[first:] {
			win.normMs = append(win.normMs, x*wall)
		}
		win.normSeconds += (win.elapsed - elapsed0).Seconds() * wall
		win.normCPUMs += ms(cpu) * speed
		win.steal = append(win.steal, steal)
		before = after
	}
	return win, nil
}

// slice runs operations until d has passed, or, when limit >= 0, until
// operation limit-1 has been handed out; operations that started in
// time run to completion. It returns the CPU time the working process
// spent and the share of the host's CPU time stolen meanwhile.
func (win *window) slice(s session, rec *recorder, d time.Duration, limit int, next *atomic.Int64) (time.Duration, float64, error) {
	cpu0, err := procCPU(s.pid())
	if err != nil {
		return 0, 0, err
	}
	if err := resetPeakRSS(s.pid()); err != nil {
		return 0, 0, err
	}
	steal, err := startSteal()
	if err != nil {
		return 0, 0, err
	}
	var (
		mu     sync.Mutex
		last   time.Time
		wg     sync.WaitGroup
		start  = time.Now()
		finish = start.Add(d)
	)
	for c := 0; c < s.clients(); c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				if limit < 0 && !time.Now().Before(finish) {
					return
				}
				i := int(next.Add(1) - 1)
				if limit >= 0 && i >= limit {
					next.Add(-1) // hand the index to the next slice
					return
				}
				t0 := time.Now()
				err := s.op(opEnv{rec: rec, client: client}, i)
				t1 := time.Now()
				mu.Lock()
				win.opMs = append(win.opMs, ms(t1.Sub(t0)))
				win.opKinds = append(win.opKinds, s.kind(i))
				if err != nil {
					if win.failed < maxLoggedErrors {
						fmt.Fprintf(os.Stderr, "bench: op %d: %v\n", i, err)
					}
					win.failed++
				}
				if t1.After(last) {
					last = t1
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if last.IsZero() {
		return 0, 0, nil // the window's time was used up: no operation ran
	}
	win.elapsed += last.Sub(start)
	cpu1, err := procCPU(s.pid())
	if err != nil {
		return 0, 0, err
	}
	stolen, err := steal.share()
	if err != nil {
		return 0, 0, err
	}
	hwm, err := procStatusKB(s.pid(), "VmHWM")
	if err != nil {
		return 0, 0, err
	}
	win.rssMB = append(win.rssMB, hwm/1024)
	win.cpu += cpu1 - cpu0
	return cpu1 - cpu0, stolen, nil
}

// run runs one workload, traced or not.
func run(w workloadDef, c *runConfig) (*result, error) {
	if c.trace {
		return runTraced(w, c)
	}
	return runUntraced(w, c)
}

// runUntraced sets the workload up c.size.setups times (each on fresh
// state; the last one is kept), measures it for c.seconds, and reports
// the end-to-end metrics. The setups are calibrated like one slice.
func runUntraced(w workloadDef, c *runConfig) (res *result, err error) {
	var setups, setupRefMs []float64
	var s session
	before, err := calibrate(&setupRefMs)
	if err != nil {
		return nil, err
	}
	steal, err := startSteal()
	if err != nil {
		return nil, err
	}
	for k := 0; k < c.size.setups; k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		s, err = w.setup(c)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := s.close(); err == nil && cerr != nil {
			res, err = nil, cerr
		}
	}()
	stolen, err := steal.share()
	if err != nil {
		return nil, err
	}
	if err := quiesce(s.pid()); err != nil {
		return nil, err
	}
	after, err := calibrate(&setupRefMs)
	if err != nil {
		return nil, err
	}
	setupScale := nominalScale(before, after) * (1 - stolen)
	win, err := measure(w, s, nil, c.seconds, c.size.slices)
	if err != nil {
		return nil, err
	}
	failed := win.failed + s.verify()
	// Times are reported at the nominal host speed (calibrate.go); the
	// notes keep the raw values.
	n := len(win.opMs)
	op := stats.Summarize(win.normMs)
	opNote := fmt.Sprintf("q1 %.4g q3 %.4g", op.Q1, op.Q3)
	if op.HasP95 {
		opNote += fmt.Sprintf(" p95 %.4g", op.P95)
	}
	opNote += fmt.Sprintf(", raw p50 %.4g ms", stats.MixMedian(win.opMs, win.opKinds))
	setup := stats.Summarize(setups)
	rss := stats.Summarize(win.rssMB)
	return &result{
		workload:  w.name,
		seed:      c.seed,
		attempted: n,
		failed:    failed,
		defs:      endToEnd,
		metrics: map[string]metric{
			"setup_s":       {value: setup.Median * setupScale, n: setup.N, note: fmt.Sprintf("raw %.4g s, q1 %.4g q3 %.4g", setup.Median, setup.Q1, setup.Q3)},
			"op_ms_p50":     {value: stats.MixMedian(win.normMs, win.opKinds), n: n, note: opNote},
			"ops_per_s":     {value: float64(n) / win.normSeconds, n: n, note: fmt.Sprintf("raw %.4g/s", float64(n)/win.elapsed.Seconds())},
			"cpu_ms_per_op": {value: win.normCPUMs / float64(n), n: n, note: fmt.Sprintf("raw %.4g ms", ms(win.cpu)/float64(n))},
			"rss_mb":        {value: rss.Median, n: rss.N, note: fmt.Sprintf("q1 %.4g q3 %.4g max %.4g", rss.Q1, rss.Q3, slices.Max(win.rssMB))},
		},
		refMs: win.refMs,
		steal: win.steal,
	}, nil
}

// runTraced measures the workload twice on fresh sessions: a quarter
// of c.seconds untraced, then half traced (spans, a CPU profile, the
// runtime sampler). The traced half gives the workload-measured layer
// metrics, the pair gives the tracing overhead, and the layer probes
// fill in the rest. Both windows are sliced and calibrated like an
// untraced run's, so the overhead compares times at one host speed;
// the profile leaves out the reference loop's samples.
func runTraced(w workloadDef, c *runConfig) (*result, error) {
	res := &result{workload: w.name, seed: c.seed, trace: true, defs: perLayer, metrics: map[string]metric{}}

	plain, err := w.setup(c)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	winA, err := measure(w, plain, nil, c.seconds/4, max(1, c.size.slices/4))
	if err == nil {
		winA.failed += plain.verify()
	}
	if cerr := plain.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	s, err := w.setup(c)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rec := newRecorder()
	rs := startRuntimeSampler()
	prof, err := startCPUProfile()
	if err != nil {
		s.close()
		return nil, err
	}
	winB, err := measure(w, s, rec, c.seconds/2, max(1, c.size.slices/2))
	shares, perr := prof.stop()
	gcFrac, heapPeak := rs.finish()
	if err == nil {
		err = perr
	}
	var layer map[string]metric
	if err == nil {
		layer, err = s.layer(rec, winB)
	}
	if err == nil {
		winB.failed += s.verify()
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	for k, v := range layer {
		res.metrics[k] = v
	}
	nB := len(winB.opMs)
	for _, p := range cpuPackages {
		res.metrics["cpu_share."+p] = metric{value: shares[p], n: nB}
	}
	res.metrics["runtime.gc_cpu_frac"] = metric{value: gcFrac, n: nB}
	res.metrics["runtime.heap_peak_mb"] = metric{value: heapPeak, n: nB}
	p50A, p50B := stats.MixMedian(winA.normMs, winA.opKinds), stats.MixMedian(winB.normMs, winB.opKinds)
	res.metrics["bench.trace_overhead_pct"] = metric{
		value: 100 * (p50B/p50A - 1), n: nB,
		note: fmt.Sprintf("op p50 %.4g ms untraced (n=%d), %.4g ms traced; raw %.4g and %.4g ms", p50A, len(winA.opMs), p50B,
			stats.MixMedian(winA.opMs, winA.opKinds), stats.MixMedian(winB.opMs, winB.opKinds)),
	}
	res.spans = rec.summary()
	res.spanFile = filepath.Join(c.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, c.seed))
	if err := rec.write(res.spanFile); err != nil {
		return nil, err
	}

	pr, err := runProbes(c)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for k, v := range pr.metrics {
		res.metrics[k] = v
	}
	res.attempted = len(winA.opMs) + nB + pr.attempted
	res.failed = winA.failed + winB.failed + pr.failed
	// A workload that never calls the daemon takes the serve metrics,
	// and any other it did not measure itself, from the serve probe.
	if _, ok := res.metrics["serve.submit_ms_p50"]; !ok {
		sp, err := probeServe(c)
		if err != nil {
			return nil, fmt.Errorf("serve probe: %w", err)
		}
		for k, v := range sp.metrics {
			if _, ok := res.metrics[k]; !ok {
				res.metrics[k] = v
			}
		}
		res.attempted += sp.attempted
		res.failed += sp.failed
	}
	for _, d := range perLayer {
		if _, ok := res.metrics[d.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
	}
	return res, nil
}

// repoRoot finds the repository root: the nearest directory at or
// above the working directory whose go.mod declares module accelflow.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if f, err := os.Open(filepath.Join(dir, "go.mod")); err == nil {
			sc := bufio.NewScanner(f)
			isRoot := sc.Scan() && strings.TrimSpace(sc.Text()) == "module accelflow"
			f.Close()
			if isRoot {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no accelflow go.mod at or above the working directory")
		}
		dir = parent
	}
}
