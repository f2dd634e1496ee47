// The property-based harness: generated scenarios (gen.go) are
// materialized into full simulator runs with the invariant checker
// attached, plus metamorphic properties relating runs to each other.
// It lives in the external check_test package so it can drive
// engine/workload without creating an import cycle (check itself is
// imported by the engine).
//
// Iteration budget and repro artifacts are flag-controlled:
//
//	go test ./internal/check -prop.iters=250 -prop.artifacts=/tmp/repros
//
// The nightly CI job runs 10x the PR-time budget and uploads any
// written repro files; each carries the (baseSeed, index) pair that
// regenerates the failing scenario exactly.
package check_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"accelflow/internal/check"
	"accelflow/internal/config"
	"accelflow/internal/control"
	"accelflow/internal/engine"
	"accelflow/internal/fault"
	"accelflow/internal/services"
	"accelflow/internal/sim"
	"accelflow/internal/tune"
	"accelflow/internal/workload"
)

var (
	propIters = flag.Int("prop.iters", 25, "property-harness scenarios per run (nightly uses 10x)")
	propSeed  = flag.Int64("prop.seed", 1, "property-harness base seed")
	propArt   = flag.String("prop.artifacts", "", "directory for violation repro artifacts (empty = none)")
)

// policyByName maps the generator's plain-data policy names onto
// engine policies; keeping the mapping here is what keeps the check
// package import-cycle-free.
func policyByName(t *testing.T, name string) engine.Policy {
	t.Helper()
	switch name {
	case "accelflow":
		return engine.AccelFlow()
	case "relief":
		return engine.RELIEF()
	case "cohort":
		return engine.Cohort(engine.DefaultCohortPairs())
	case "cpucentric":
		return engine.CPUCentric()
	case "nonacc":
		return engine.NonAcc()
	}
	t.Fatalf("generator emitted unknown policy %q", name)
	return engine.Policy{}
}

// specFor materializes one generated scenario into a runnable spec
// with a fresh checker attached.
func specFor(t *testing.T, sc check.Scenario) *workload.RunSpec {
	t.Helper()
	return &workload.RunSpec{
		Config:  sc.Cfg,
		Policy:  policyByName(t, sc.PolicyName),
		Sources: workload.Mix(services.SocialNetwork(), sc.LoadScale, sc.Requests),
		Seed:    sc.Seed,
		Faults:  sc.Faults,
		Check:   check.New(),
	}
}

// repro is the artifact written for a failing scenario: the two
// integers regenerate it exactly via check.GenScenario.
type repro struct {
	BaseSeed int64  `json:"baseSeed"`
	Index    int    `json:"index"`
	RunSeed  int64  `json:"runSeed"`
	Policy   string `json:"policy"`
	Error    string `json:"error"`
}

func writeRepro(t *testing.T, sc check.Scenario, runErr error) {
	t.Helper()
	if *propArt == "" {
		return
	}
	if err := os.MkdirAll(*propArt, 0o755); err != nil {
		t.Errorf("repro dir: %v", err)
		return
	}
	r := repro{BaseSeed: sc.BaseSeed, Index: sc.Index, RunSeed: sc.Seed,
		Policy: sc.PolicyName, Error: runErr.Error()}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Errorf("repro marshal: %v", err)
		return
	}
	path := filepath.Join(*propArt, fmt.Sprintf("repro-seed%d-idx%d.json", sc.BaseSeed, sc.Index))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Errorf("repro write: %v", err)
	}
}

// TestPropertyInvariants is the harness core: every generated scenario
// runs with the full invariant suite attached; any violation fails the
// test and (when -prop.artifacts is set) writes a repro file.
func TestPropertyInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("property harness runs full simulations")
	}
	for i := 0; i < *propIters; i++ {
		sc := check.GenScenario(*propSeed, i)
		if err := sc.Validate(); err != nil {
			t.Fatalf("generator emitted invalid scenario: %v", err)
		}
		spec := specFor(t, sc)
		if _, err := spec.Run(); err != nil {
			writeRepro(t, sc, err)
			t.Errorf("scenario (seed %d, index %d, policy %s): %v",
				sc.BaseSeed, sc.Index, sc.PolicyName, err)
		}
	}
}

// FuzzGenScenario widens TestPropertyInvariants past its fixed
// iteration budget: any (baseSeed, index) pair the fuzzer picks must
// generate a valid scenario whose checked run reports no violation.
func FuzzGenScenario(f *testing.F) {
	f.Add(int64(1), uint16(0))
	f.Add(int64(7), uint16(42))
	f.Fuzz(func(t *testing.T, baseSeed int64, i uint16) {
		sc := check.GenScenario(baseSeed, int(i))
		if err := sc.Validate(); err != nil {
			t.Fatalf("generator emitted invalid scenario: %v", err)
		}
		if _, err := specFor(t, sc).Run(); err != nil {
			t.Fatalf("scenario (seed %d, index %d, policy %s): %v", baseSeed, i, sc.PolicyName, err)
		}
	})
}

// runMix runs the SocialNetwork mix under AccelFlow at the given load
// scale with the invariant checker attached, on a config mutated by
// tweak (nil = default).
func runMix(t *testing.T, loadScale float64, seed int64, tweak func(*config.Config)) *workload.RunResult {
	t.Helper()
	cfg := config.Default()
	if tweak != nil {
		tweak(cfg)
	}
	spec := &workload.RunSpec{
		Config:  cfg,
		Policy:  engine.AccelFlow(),
		Sources: workload.Mix(services.SocialNetwork(), loadScale, 400),
		Seed:    seed,
		Check:   check.New(),
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatalf("load %.2f: %v", loadScale, err)
	}
	return res
}

// TestMetamorphicLoadScaling: scaling arrival rates down at fixed
// capacity must not increase mean latency. Arrival gaps are drawn from
// the same seeded streams at every scale, so only the spacing changes;
// the slack absorbs second-order effects (timeout/retry paths shifting
// which requests contend).
func TestMetamorphicLoadScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic properties run full simulations")
	}
	const slack = 1.05
	prev := runMix(t, 1.5, 9, nil)
	for _, scale := range []float64{0.75, 0.3} {
		cur := runMix(t, scale, 9, nil)
		if cur.All.Mean().Micros() > prev.All.Mean().Micros()*slack {
			t.Errorf("mean latency rose when load fell: %.1fus at lower load vs %.1fus at higher",
				cur.All.Mean().Micros(), prev.All.Mean().Micros())
		}
		prev = cur
	}
}

// TestMetamorphicMorePEs: adding PEs at identical request streams must
// not worsen the P99 beyond noise — capacity can only relieve queues.
func TestMetamorphicMorePEs(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic properties run full simulations")
	}
	const slack = 1.10
	few := runMix(t, 1.2, 17, func(c *config.Config) { c.PEsPerAccel = 2 })
	many := runMix(t, 1.2, 17, func(c *config.Config) { c.PEsPerAccel = 8 })
	if many.All.P99().Micros() > few.All.P99().Micros()*slack {
		t.Errorf("P99 worsened with more PEs: 8 PEs %.1fus vs 2 PEs %.1fus",
			many.All.P99().Micros(), few.All.P99().Micros())
	}
}

// TestPropertyFleetCheckedSharded drives generated scenarios through a
// checked 3-replica fleet at worker counts 1 and 4. Fault windows here
// genuinely cross epoch boundaries: each replica's injector resizes
// its resources (SetOffline) at window edges scheduled
// independently of the coordinator's ~RTT/2 epochs, so apply and
// revert land in different epochs while mail is in flight. Invariants
// must hold on every replica and the merged results must be
// worker-count invariant.
func TestPropertyFleetCheckedSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("property harness runs full simulations")
	}
	iters := *propIters
	if iters > 6 {
		iters = 6
	}
	const replicas = 3
	for i := 0; i < iters; i++ {
		sc := check.GenScenario(*propSeed, i)
		run := func(workers int) *workload.FleetResult {
			spec := &workload.FleetSpec{
				Config:   sc.Cfg,
				Policy:   policyByName(t, sc.PolicyName),
				Sources:  workload.Mix(services.SocialNetwork(), sc.LoadScale*replicas, sc.Requests),
				Seed:     sc.Seed,
				Replicas: replicas,
				Workers:  workers,
				Faults:   sc.Faults,
				Check:    true,
			}
			res, err := spec.Run()
			if err != nil {
				writeRepro(t, sc, err)
				t.Fatalf("fleet scenario (seed %d, index %d, workers %d): %v",
					sc.BaseSeed, sc.Index, workers, err)
			}
			return res
		}
		a, b := run(1), run(4)
		if a.Merged.Completed != b.Merged.Completed || a.Merged.TimedOut != b.Merged.TimedOut ||
			a.Merged.FellBack != b.Merged.FellBack || a.Merged.Elapsed != b.Merged.Elapsed ||
			a.Merged.All.Mean() != b.Merged.All.Mean() || a.Merged.All.P99() != b.Merged.All.P99() ||
			a.Events != b.Events || a.Epochs != b.Epochs || a.Mail != b.Mail {
			t.Errorf("fleet scenario (seed %d, index %d, policy %s): workers=1 and workers=4 diverged",
				sc.BaseSeed, sc.Index, sc.PolicyName)
		}
	}
}

// TestMetamorphicFaultRateZero: a rate-0, loss-0 fault spec attaches
// the injector but schedules nothing, so results must be bit-identical
// to running with no injector at all (the zero-overhead contract the
// resilience experiment's golden values rest on).
func TestMetamorphicFaultRateZero(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic properties run full simulations")
	}
	base := &workload.RunSpec{
		Config:  config.Default(),
		Policy:  engine.AccelFlow(),
		Sources: workload.Mix(services.SocialNetwork(), 1.0, 300),
		Seed:    5,
		Check:   check.New(),
	}
	withZero := *base
	withZero.Check = check.New()
	withZero.Faults = &fault.Spec{Rate: 0, MeanWindow: 200 * sim.Microsecond, Horizon: sim.Second,
		PEFail: true, ManagerStall: true, NoCInflate: 4}

	a, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := withZero.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.TimedOut != b.TimedOut || a.FellBack != b.FellBack {
		t.Errorf("counters diverge: no injector %d/%d/%d vs rate-0 %d/%d/%d",
			a.Completed, a.TimedOut, a.FellBack, b.Completed, b.TimedOut, b.FellBack)
	}
	if a.Elapsed != b.Elapsed || a.All.Mean() != b.All.Mean() || a.All.P99() != b.All.P99() {
		t.Errorf("timings diverge: no injector (%v, mean %v, p99 %v) vs rate-0 (%v, mean %v, p99 %v)",
			a.Elapsed, a.All.Mean(), a.All.P99(), b.Elapsed, b.All.Mean(), b.All.P99())
	}
}

// surgeSpec is the shared base for the control-layer metamorphic
// properties: a 3x surge of the SocialNetwork mix with the invariant
// checker attached, onto which each property grafts its controller.
func surgeSpec(requests int, seed int64) *workload.RunSpec {
	return &workload.RunSpec{
		Config:  config.Default(),
		Policy:  engine.AccelFlow(),
		Sources: workload.Mix(services.SocialNetwork(), 3.0, requests),
		Seed:    seed,
		Check:   check.New(),
	}
}

// TestMetamorphicMoreHeadroom: raising the autoscaler's add ceiling at
// identical arrivals must not worsen the P99 — extra headroom lets the
// controller relieve the same queues sooner, the control-layer twin of
// TestMetamorphicMorePEs. The slack absorbs second-order shifts in
// which requests contend after the earlier scale-ups.
func TestMetamorphicMoreHeadroom(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic properties run full simulations")
	}
	const slack = 1.10
	run := func(maxAdd int) *workload.RunResult {
		spec := surgeSpec(400, 13)
		spec.Sources = workload.Mix(services.SocialNetwork(), 6.0, 400)
		spec.Control = &control.Spec{Autoscale: &control.AutoscaleSpec{
			Target:   control.TargetPE,
			UpUtil:   0.1,
			DownUtil: 0.02,
			MaxAdd:   maxAdd,
		}}
		res, err := spec.Run()
		if err != nil {
			t.Fatalf("MaxAdd %d: %v", maxAdd, err)
		}
		return res
	}
	capped, roomy := run(2), run(8)
	// The property is vacuous unless the surge actually drives the
	// capped run into its ceiling and the roomy run past it.
	if capped.Control.ScaleUps == 0 {
		t.Fatal("surge produced no scale-ups — controller not engaged")
	}
	if roomy.Control.Level <= capped.Control.Level {
		t.Fatalf("headroom unused: level %d with MaxAdd 8 vs %d with MaxAdd 2",
			roomy.Control.Level, capped.Control.Level)
	}
	if roomy.All.P99().Micros() > capped.All.P99().Micros()*slack {
		t.Errorf("P99 worsened with more headroom: MaxAdd 8 %.1fus vs MaxAdd 2 %.1fus",
			roomy.All.P99().Micros(), capped.All.P99().Micros())
	}
}

// TestMetamorphicShedConservation: a shed request vanishes before
// submission and must never reappear in any downstream count. With
// every control policy live (both shed kinds, retries under a fault
// burst), engine completions equal arrivals - Shed + Retries and the
// latency recorder sees exactly arrivals - Shed final attempts —
// while the full invariant suite (whose conservation check compares
// engine admissions against completions) stays green.
func TestMetamorphicShedConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic properties run full simulations")
	}
	const arrivals = 300
	spec := surgeSpec(arrivals, 11)
	// Short enqueue backoff plus a single timeout rearm make the lost
	// remote responses (RemoteLossRate) actually surface as timeouts,
	// the retry path's trigger.
	spec.Config.EnqueueBackoff = 200 * sim.Nanosecond
	spec.Config.TimeoutRearms = 1
	spec.Faults = &fault.Spec{
		Rate:           20000,
		MeanWindow:     150 * sim.Microsecond,
		Horizon:        sim.Second,
		PEDegradeFrac:  0.75,
		PEFail:         true,
		RemoteLossRate: 0.05,
	}
	spec.Control = &control.Spec{
		Autoscale: &control.AutoscaleSpec{
			Target:   control.TargetPE,
			UpUtil:   0.3,
			DownUtil: 0.05,
			SLOUs:    300,
			MaxAdd:   8,
		},
		Shed:  &control.ShedSpec{Queue: 48, Prob: 0.02},
		Retry: &control.RetrySpec{Budget: 16},
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Vacuousness guards: both shed kinds and the retry path must fire.
	if res.Control.ShedQueue == 0 || res.Control.ShedRandom == 0 {
		t.Fatalf("shed kinds not exercised: queue %d, random %d",
			res.Control.ShedQueue, res.Control.ShedRandom)
	}
	if res.Retries == 0 {
		t.Fatal("retry path not exercised")
	}
	if res.Shed != res.Control.ShedQueue+res.Control.ShedRandom {
		t.Errorf("Shed %d != queue %d + random %d",
			res.Shed, res.Control.ShedQueue, res.Control.ShedRandom)
	}
	if res.Completed != arrivals-res.Shed+res.Retries {
		t.Errorf("completions %d != arrivals %d - shed %d + retries %d",
			res.Completed, arrivals, res.Shed, res.Retries)
	}
	if got := uint64(res.All.Count()); got != arrivals-res.Shed {
		t.Errorf("recorder saw %d latencies, want arrivals %d - shed %d",
			got, arrivals, res.Shed)
	}
}

// TestMetamorphicControllerNeutral: an autoscaler whose thresholds are
// unreachable (utilization is clamped to [0,1], so UpUtil 2 and
// DownUtil -1 are the +-infinity spellings; SLOUs 0 disables breach
// detection) with no shed or retry policy must leave every result
// bit-identical to running with no controller at all — the zero-RNG
// disabled contract. Only Elapsed may differ, by at most one decision
// interval: the tick, like the obs sampler, observes the final state
// once after the last completion.
func TestMetamorphicControllerNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic properties run full simulations")
	}
	const interval = 50 * sim.Microsecond
	bare := surgeSpec(400, 29)
	neutral := surgeSpec(400, 29)
	neutral.Control = &control.Spec{Autoscale: &control.AutoscaleSpec{
		Target:   control.TargetPE,
		UpUtil:   2,
		DownUtil: -1,
		Interval: interval,
	}}
	a, err := bare.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := neutral.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st := b.Control; st.ScaleUps != 0 || st.ScaleDowns != 0 || st.ShedQueue != 0 ||
		st.ShedRandom != 0 || st.Retries != 0 || st.BreachTicks != 0 {
		t.Errorf("neutral controller acted: %+v", *st)
	}
	if a.Completed != b.Completed || a.TimedOut != b.TimedOut || a.FellBack != b.FellBack {
		t.Errorf("counters diverge: bare %d/%d/%d vs neutral %d/%d/%d",
			a.Completed, a.TimedOut, a.FellBack, b.Completed, b.TimedOut, b.FellBack)
	}
	if a.All.Count() != b.All.Count() || a.All.Mean() != b.All.Mean() ||
		a.All.P99() != b.All.P99() || a.All.Max() != b.All.Max() {
		t.Errorf("latencies diverge: bare (n %d, mean %v, p99 %v, max %v) vs neutral (n %d, mean %v, p99 %v, max %v)",
			a.All.Count(), a.All.Mean(), a.All.P99(), a.All.Max(),
			b.All.Count(), b.All.Mean(), b.All.P99(), b.All.Max())
	}
	if b.Elapsed < a.Elapsed || b.Elapsed-a.Elapsed > interval {
		t.Errorf("Elapsed moved beyond one final tick: bare %v vs neutral %v", a.Elapsed, b.Elapsed)
	}
}

// TestMetamorphicWiderTuneSpace: widening the autotuner's search space
// (appending levels to every bound, same seed) must never yield a
// worse final objective. Every space in the chain shares the same
// start candidate (index 0 of each dimension, and appending levels
// never shifts it), whose evaluation seed derives from the candidate
// key alone — so the wider search's best-so-far starts from the exact
// same score and can only go down from there by exploring a superset
// of configurations. Evaluations run with the invariant checker
// attached, making this the harness's metamorphic property over the
// search layer, not just a single run.
func TestMetamorphicWiderTuneSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic properties run full simulations")
	}
	p := tune.Params{
		Objective:      "p99",
		Seed:           21,
		Requests:       120,
		Quick:          true,
		MaxGenerations: 8,
		Patience:       2,
		Check:          true,
	}
	// Each space appends levels to the previous one; the first is a
	// single deliberately under-provisioned point so the chain has room
	// to improve.
	chain := []tune.SpaceSpec{
		{Chiplets: []int{1}, PEs: []int{4}, Policies: []string{"relief"}},
		{Chiplets: []int{1, 2}, PEs: []int{4, 8}, Policies: []string{"relief"}},
		{Chiplets: []int{1, 2}, PEs: []int{4, 8}, Policies: []string{"relief", "accelflow"}},
		{Chiplets: []int{1, 2, 4}, PEs: []int{4, 8, 12}, Policies: []string{"relief", "accelflow", "cohort"}},
	}
	var prev *tune.Result
	for i, space := range chain {
		q := p
		q.Space = space
		res, err := tune.Run(context.Background(), q, nil, tune.Hooks{})
		if err != nil {
			t.Fatalf("space %d: %v", i, err)
		}
		if prev != nil && res.BestScore > prev.BestScore {
			t.Errorf("widening the space worsened the objective: space %d best %.4f (%s) vs space %d best %.4f (%s)",
				i, res.BestScore, res.BestKey, i-1, prev.BestScore, prev.BestKey)
		}
		prev = res
	}
	// The widest space must beat the single-point baseline outright:
	// with more chiplets, PEs, and the paper's policy available, the
	// searcher has to find something strictly better.
	first := chain[0]
	q := p
	q.Space = first
	base, err := tune.Run(context.Background(), q, nil, tune.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if prev.BestScore >= base.BestScore {
		t.Errorf("widest space found nothing better than the single-point baseline: %.4f vs %.4f",
			prev.BestScore, base.BestScore)
	}
}
