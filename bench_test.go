// Package-level benchmarks for a developer's `go test -bench` loop:
// one benchmark per paper table and figure, which runs the experiment
// at a reduced (Quick) scale and reports the headline value as a
// custom metric, plus the serial and parallel sweep, one single-server
// run bare and with each optional layer attached, the sharded fleet,
// and a daemon round trip. They report single samples; the repository
// benchmark under bench/ (see bench/README.md) is the one that reports
// medians with spreads and gates changes, and the allocation-budget
// tests in alloc_budget_test.go are the exact regression guards.
package main

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"accelflow/internal/check"
	"accelflow/internal/config"
	"accelflow/internal/control"
	"accelflow/internal/engine"
	"accelflow/internal/experiments"
	"accelflow/internal/obs"
	"accelflow/internal/serve"
	"accelflow/internal/services"
	"accelflow/internal/workload"
)

func benchExperiment(b *testing.B, id string, metric string) {
	run, ok := experiments.Registry[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := experiments.Options{Requests: 150, Seed: 1, Quick: true}
	// The throughput searches simulate many load points per call; keep
	// a single bench iteration within a few seconds.
	if id == "fig14" || id == "fig15" {
		opts.Requests = 60
	}
	var last *experiments.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if metric != "" {
		if v, ok := last.Values[metric]; ok {
			b.ReportMetric(v, metric)
		}
	}
}

func BenchmarkFig1Breakdown(b *testing.B) { benchExperiment(b, "fig1", "avg/app_share") }
func BenchmarkFig3Overhead(b *testing.B)  { benchExperiment(b, "fig3", "") }
func BenchmarkTab1(b *testing.B)          { benchExperiment(b, "tab1", "") }
func BenchmarkQ2(b *testing.B)            { benchExperiment(b, "q2", "SocialNet") }
func BenchmarkFig5Sizes(b *testing.B)     { benchExperiment(b, "fig5", "") }
func BenchmarkTab2(b *testing.B)          { benchExperiment(b, "tab2", "") }
func BenchmarkTab3(b *testing.B)          { benchExperiment(b, "tab3", "") }
func BenchmarkTab4(b *testing.B)          { benchExperiment(b, "tab4", "") }
func BenchmarkFig11Latency(b *testing.B)  { benchExperiment(b, "fig11", "reduction_p99/RELIEF") }
func BenchmarkFig12Loads(b *testing.B)    { benchExperiment(b, "fig12", "reduction/15k") }
func BenchmarkFig13Ablation(b *testing.B) { benchExperiment(b, "fig13", "reduction/AccelFlow") }
func BenchmarkFig14Tput(b *testing.B)     { benchExperiment(b, "fig14", "ratio/relief") }
func BenchmarkFig15Coarse(b *testing.B)   { benchExperiment(b, "fig15", "avg_ratio") }
func BenchmarkFig16Sls(b *testing.B)      { benchExperiment(b, "fig16", "reduction_vs_relief") }
func BenchmarkFig17Components(b *testing.B) {
	benchExperiment(b, "fig17", "avg_orch_share")
}
func BenchmarkGlueInstrs(b *testing.B)  { benchExperiment(b, "glue", "mean_instrs") }
func BenchmarkUtilization(b *testing.B) { benchExperiment(b, "util", "TCP") }
func BenchmarkEnergy(b *testing.B)      { benchExperiment(b, "energy", "energy_reduction") }
func BenchmarkEvents(b *testing.B)      { benchExperiment(b, "events", "peak/fallback_pct") }
func BenchmarkFig18Chiplets(b *testing.B) {
	benchExperiment(b, "fig18", "increase_6v2")
}
func BenchmarkSens2Latency(b *testing.B) { benchExperiment(b, "sens2", "increase_6c_100v60") }
func BenchmarkFig19PEs(b *testing.B)     { benchExperiment(b, "fig19", "increase_2pe") }
func BenchmarkFig20Generations(b *testing.B) {
	benchExperiment(b, "fig20", "")
}
func BenchmarkSens5Speedups(b *testing.B) { benchExperiment(b, "sens5", "1.00x/gain") }
func BenchmarkArea(b *testing.B)          { benchExperiment(b, "area", "combined_frac") }

// sweepIDs are the cell-heavy experiments the parallel engine fans
// out; the Serial/Parallel pair below measures its speedup. Run
//
//	go test -bench='BenchmarkSweep' -benchtime=1x
//
// on a multicore machine to compare: results are bit-identical (the
// determinism tests enforce it), only wall clock differs.
var sweepIDs = []string{"fig11", "fig12", "fig13", "fig18", "fig19", "fig20", "sens2", "sens5"}

func benchSweep(b *testing.B, parallelism int) {
	opts := experiments.Options{Requests: 150, Seed: 1, Quick: true, Parallelism: parallelism}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, out := range experiments.RunMany(sweepIDs, opts) {
			if out.Err != nil {
				b.Fatalf("%s: %v", out.ID, out.Err)
			}
		}
	}
}

// benchRunRequests is the fixed request budget of the single-run
// benchmarks below; TestRunAllocBudgetPerRequest divides allocations
// per run by it.
const benchRunRequests = 300

// benchRunSpec builds the RunSpec for one benchmark iteration. The
// expensive, reusable inputs (service catalog, config, policy) are
// built once by the caller outside the timed loop; only the genuinely
// per-run state is assembled here: workload.Mix allocates fresh
// Arrivals because the Alibaba process accumulates phase state across
// draws, and an obs.Sink / check.Checker records exactly one run.
func benchRunSpec(svcs []*services.Service, cfg *config.Config, pol engine.Policy) *workload.RunSpec {
	return &workload.RunSpec{
		Config:  cfg,
		Policy:  pol,
		Sources: workload.Mix(svcs, 1.0, benchRunRequests),
		Seed:    1,
	}
}

// benchRun measures one single-server run per iteration, with attach
// (when non-nil) adding an optional layer to each fresh spec. It
// reports kernel events per iteration (events/op), so events/sec and
// ns/event fall out of ns/op. Compare an attached variant against the
// baseline with
//
//	go test -run '^$' -bench 'BenchmarkRun(Baseline|Obs)$' -count 10
//
// The repository benchmark (bench/) reports the same overheads as
// medians with quartile spreads.
var benchRunResult *workload.RunResult

func benchRun(b *testing.B, attach func(*workload.RunSpec)) {
	svcs := services.SocialNetwork()
	cfg := config.Default()
	pol := engine.AccelFlow()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := benchRunSpec(svcs, cfg, pol)
		if attach != nil {
			attach(spec)
		}
		res, err := spec.Run()
		if err != nil {
			b.Fatal(err)
		}
		events += res.Engine.K.Processed()
		benchRunResult = res
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkRunBaseline attaches nothing: every obs and check call is a
// nil-receiver no-op and the runner skips every controller branch.
func BenchmarkRunBaseline(b *testing.B) { benchRun(b, nil) }

func BenchmarkRunObs(b *testing.B) {
	benchRun(b, func(s *workload.RunSpec) { s.Obs = obs.New() })
}

func BenchmarkRunCheck(b *testing.B) {
	benchRun(b, func(s *workload.RunSpec) { s.Check = check.New() })
}

// BenchmarkRunControlled runs every control policy — PE autoscaler,
// both shed kinds, retry budgets — and so prices the controller's work
// on the request path plus the decision tick.
func BenchmarkRunControlled(b *testing.B) {
	benchRun(b, func(s *workload.RunSpec) {
		s.Control = &control.Spec{
			Autoscale: &control.AutoscaleSpec{
				Target:   control.TargetPE,
				UpUtil:   0.75,
				DownUtil: 0.25,
				MaxAdd:   8,
			},
			Shed:  &control.ShedSpec{Queue: 64, Prob: 0.01},
			Retry: &control.RetrySpec{Budget: 8},
		}
	})
}

// benchFleetRequests is the fleet benchmark's request budget: 30x the
// single-run budget, spread over benchFleetReplicas servers so each
// replica sees a comparable per-server load.
const (
	benchFleetRequests = 30 * benchRunRequests
	benchFleetReplicas = 8
)

// benchFleetSpec builds the FleetSpec for one fleet benchmark
// iteration; like benchRunSpec, it assembles only the per-run state.
func benchFleetSpec(svcs []*services.Service, cfg *config.Config, pol engine.Policy) *workload.FleetSpec {
	return &workload.FleetSpec{
		Config:   cfg,
		Policy:   pol,
		Sources:  workload.Mix(svcs, benchFleetReplicas, benchFleetRequests),
		Seed:     1,
		Replicas: benchFleetReplicas,
	}
}

// BenchmarkRunFleet measures the fleet's real parallelism: an
// 8-replica fleet (workload.FleetSpec) whose replicas run on up to
// GOMAXPROCS goroutines. Results are byte-identical at every
// GOMAXPROCS — the determinism tests enforce it — so runs at different
// -cpu values differ only in wall clock, and events/op divided by
// ns/op gives the events/sec scaling curve. Compare against
// BenchmarkRunBaseline for the serial single-server baseline:
//
//	go test -run '^$' -bench 'BenchmarkRun(Baseline|Fleet)' -cpu 1,2,4,8 -benchtime 5x
var benchRunFleetResult *workload.FleetResult

func BenchmarkRunFleet(b *testing.B) {
	svcs := services.SocialNetwork()
	cfg := config.Default()
	pol := engine.AccelFlow()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := benchFleetSpec(svcs, cfg, pol).Run()
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
		benchRunFleetResult = res
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// serveQuickJob is the round-trip benchmarks' experiment job.
const serveQuickJob = `{"type":"experiment","experiment":"fig19","quick":true,"requests":40,"seed":1,"parallelism":1}`

// serveRoundTrip submits a job to the in-process HTTP daemon, then
// reads the NDJSON progress stream to EOF (the completion barrier — its
// last line is the "done" event), and returns the job's URL path.
func serveRoundTrip(b *testing.B, handler http.Handler, body string) string {
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		b.Fatalf("submit: status %d: %s", rec.Code, rec.Body.String())
	}
	id := rec.Header().Get("Location")
	prec := httptest.NewRecorder()
	handler.ServeHTTP(prec, httptest.NewRequest("GET", id+"/progress", nil))
	if prec.Code != http.StatusOK {
		b.Fatalf("progress: status %d", prec.Code)
	}
	var last string
	sc := bufio.NewScanner(prec.Body)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	if !strings.Contains(last, `"done"`) {
		b.Fatalf("job did not finish cleanly: %s", last)
	}
	return id
}

// BenchmarkServeSubmitQuick measures a full job round trip through the
// in-process HTTP daemon: the serving layer's end-to-end overhead on
// top of the simulation itself.
func BenchmarkServeSubmitQuick(b *testing.B) {
	sched := serve.NewScheduler(serve.Config{Workers: 1, QueueDepth: 2})
	defer sched.Close()
	handler := serve.NewServer(sched).Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveRoundTrip(b, handler, serveQuickJob)
	}
}

// BenchmarkServeSubmitCached is the same round trip with the
// content-addressed result cache enabled and primed: every timed
// submission is served from cache ("cached": true, byte-identical
// values), so the pair SubmitQuick/SubmitCached measures what
// deduplication buys — the cached path must be >= 10x cheaper than
// the cold one. The experiment case is that pair's other half; the
// observed case is a daemon-hot style hit on the daemon's most common
// job: submit, progress, then the values body.
func BenchmarkServeSubmitCached(b *testing.B) {
	b.Run("experiment", func(b *testing.B) { benchServeCached(b, serveQuickJob, false) })
	b.Run("observed", func(b *testing.B) {
		benchServeCached(b, `{"type":"observed","requests":150,"quick":true,"seed":1}`, true)
	})
}

func benchServeCached(b *testing.B, body string, values bool) {
	sched := serve.NewScheduler(serve.Config{Workers: 1, QueueDepth: 2, CacheEntries: 64})
	defer sched.Close()
	handler := serve.NewServer(sched).Handler()
	serveRoundTrip(b, handler, body) // prime the cache with the one cold run
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := serveRoundTrip(b, handler, body)
		if values {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", id+"/values", nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("values: status %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
}

func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs >= 2 cores to show a speedup")
	}
	benchSweep(b, runtime.GOMAXPROCS(0))
}
