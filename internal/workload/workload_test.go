package workload

import (
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/services"
	"accelflow/internal/sim"
)

func meanRate(t *testing.T, arr Arrivals, n int) float64 {
	t.Helper()
	rng := sim.NewRNG(17)
	var total sim.Time
	for i := 0; i < n; i++ {
		total += arr.Next(rng)
	}
	return float64(n) / total.Seconds()
}

func TestPoissonMeanRate(t *testing.T) {
	got := meanRate(t, Poisson{RPS: 10000}, 50000)
	if got < 9500 || got > 10500 {
		t.Errorf("poisson mean rate = %.0f, want ~10000", got)
	}
}

func TestAlibabaMeanRateAndBurstiness(t *testing.T) {
	a := &Alibaba{RPS: 10000}
	got := meanRate(t, a, 50000)
	if got < 8500 || got > 11500 {
		t.Errorf("alibaba mean rate = %.0f, want ~10000", got)
	}
	// Burstiness: the squared coefficient of variation of gaps must
	// exceed Poisson's (CV^2 = 1).
	rng := sim.NewRNG(23)
	b := &Alibaba{RPS: 10000}
	var sum, sumsq float64
	const n = 50000
	for i := 0; i < n; i++ {
		g := b.Next(rng).Seconds()
		sum += g
		sumsq += g * g
	}
	mean := sum / n
	cv2 := (sumsq/n - mean*mean) / (mean * mean)
	if cv2 < 1.3 {
		t.Errorf("alibaba CV^2 = %.2f, want clearly > 1 (bursty)", cv2)
	}
}

func TestAlibabaBurstsCorrelateAcrossGenerators(t *testing.T) {
	// Two independent generators share wall-clock burst phase: their
	// ON windows coincide, so arrivals cluster in the same periods.
	window := 2 * sim.Millisecond
	counts := func(seed int64) map[int]int {
		g := &Alibaba{RPS: 20000}
		rng := sim.NewRNG(seed)
		m := map[int]int{}
		var t sim.Time
		for i := 0; i < 4000; i++ {
			t += g.Next(rng)
			m[int(t/window)]++
		}
		return m
	}
	a, b := counts(1), counts(2)
	// Correlation proxy: windows that are hot for A should be hot for B.
	var both, aHot, bHot int
	for w, c := range a {
		if c > 60 {
			aHot++
			if b[w] > 60 {
				both++
			}
		}
	}
	for _, c := range b {
		if c > 60 {
			bHot++
		}
	}
	if aHot == 0 || bHot == 0 {
		t.Fatal("no hot windows; burstiness missing")
	}
	if float64(both)/float64(aHot) < 0.6 {
		t.Errorf("only %d/%d of A's bursts overlap B's: bursts not correlated", both, aHot)
	}
}

func TestAzureMeanRateHeavyTail(t *testing.T) {
	got := meanRate(t, Azure{RPS: 5000}, 50000)
	if got < 3000 || got > 9000 {
		t.Errorf("azure mean rate = %.0f, want same order as 5000", got)
	}
}

func TestRunSingleService(t *testing.T) {
	svc := services.SocialNetwork()[6] // UniqId
	spec := &RunSpec{
		Config:  config.Default(),
		Policy:  engine.AccelFlow(),
		Sources: SingleService(svc, Poisson{RPS: 2000}, 150),
		Seed:    3,
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 150 {
		t.Errorf("completed %d/150", res.Completed)
	}
	if res.PerService["UniqId"].Count() != 150 {
		t.Error("per-service recorder missed samples")
	}
	if res.All.P99() <= 0 || res.Elapsed <= 0 {
		t.Error("metrics empty")
	}
	if res.AccelCount == 0 {
		t.Error("no accelerator invocations recorded")
	}
}

func TestRunDeterministic(t *testing.T) {
	svc := services.SocialNetwork()[4] // Login
	run := func() sim.Time {
		spec := &RunSpec{
			Config:  config.Default(),
			Policy:  engine.AccelFlow(),
			Sources: SingleService(svc, Poisson{RPS: 3000}, 100),
			Seed:    9,
		}
		res, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.All.Mean()
	}
	if run() != run() {
		t.Error("same seed produced different runs")
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	svc := services.SocialNetwork()[4]
	seeded := func(seed int64) *RunSpec {
		return &RunSpec{
			Config:  config.Default(),
			Policy:  engine.AccelFlow(),
			Sources: SingleService(svc, Poisson{RPS: 3000}, 100),
			Seed:    seed,
		}
	}
	r1, err := seeded(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := seeded(2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.All.Mean() == r2.All.Mean() {
		t.Error("different seeds produced identical means (suspicious)")
	}
}

func TestMixBudgetsAndRates(t *testing.T) {
	svcs := services.SocialNetwork()
	sources := Mix(svcs, 1.0, 800)
	if len(sources) != len(svcs) {
		t.Fatalf("sources = %d", len(sources))
	}
	total := 0
	for _, s := range sources {
		if s.Requests < 1 {
			t.Errorf("%s has no budget", s.Service.Name)
		}
		total += s.Requests
	}
	if total != 800 {
		t.Errorf("total budget = %d, want exactly 800", total)
	}
}

// TestMixExactBudget pins the largest-remainder apportionment: the
// per-source budgets sum to exactly the requested total whenever it is
// at least the catalog size (plain flooring used to drop requests).
func TestMixExactBudget(t *testing.T) {
	svcs := services.SocialNetwork()
	for _, total := range []int{len(svcs), 150, 800, 1000, 2497} {
		sources := Mix(svcs, 1.0, total)
		sum := 0
		for _, s := range sources {
			if s.Requests < 1 {
				t.Errorf("total %d: %s has no budget", total, s.Service.Name)
			}
			sum += s.Requests
		}
		if sum != total {
			t.Errorf("total %d: budgets sum to %d", total, sum)
		}
	}
	// Below the catalog size every service still gets one request.
	small := Mix(svcs, 1.0, 3)
	sum := 0
	for _, s := range small {
		if s.Requests != 1 {
			t.Errorf("tiny budget: %s got %d requests, want 1", s.Service.Name, s.Requests)
		}
		sum += s.Requests
	}
	if sum != len(svcs) {
		t.Errorf("tiny budget: sum = %d, want %d", sum, len(svcs))
	}
}

func TestRunErrors(t *testing.T) {
	svc := services.SocialNetwork()[0]
	spec := &RunSpec{Config: config.Default(), Policy: engine.AccelFlow(), Seed: 1}
	if _, err := spec.Run(); err == nil {
		t.Error("no sources accepted")
	}
	spec.Sources = []Source{{Service: svc, Arrivals: Poisson{RPS: 100}, Requests: 0}}
	if _, err := spec.Run(); err == nil {
		t.Error("zero budget accepted")
	}
	bad := config.Default()
	bad.Cores = 0
	spec = &RunSpec{
		Config:  bad,
		Policy:  engine.AccelFlow(),
		Sources: SingleService(svc, Poisson{RPS: 100}, 10),
		Seed:    1,
	}
	if _, err := spec.Run(); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestRepeatedServiceKeepsEverySample: two sources of one service
// share that service's recorder, so PerService counts
// both sources' requests in a single server and in a fleet alike.
func TestRepeatedServiceKeepsEverySample(t *testing.T) {
	svc := services.SocialNetwork()[4] // Login
	sources := []Source{
		{Service: svc, Arrivals: Poisson{RPS: 3000}, Requests: 40},
		{Service: svc, Arrivals: Poisson{RPS: 3000}, Requests: 60},
	}
	run, err := (&RunSpec{Config: config.Default(), Policy: engine.AccelFlow(), Sources: sources, Seed: 3}).Run()
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := (&FleetSpec{Config: config.Default(), Policy: engine.AccelFlow(), Sources: sources, Seed: 3, Replicas: 2}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*RunResult{"run": run, "fleet": fleet.Merged} {
		if got := res.PerService[svc.Name].Count(); got != 100 || res.All.Count() != 100 {
			t.Errorf("%s: PerService[%s] counted %d, All %d; want 100 each", name, svc.Name, got, res.All.Count())
		}
	}
}

func TestRunFullMixAllPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("mix run is slow")
	}
	for _, pol := range []engine.Policy{engine.NonAcc(), engine.RELIEF(), engine.AccelFlow()} {
		spec := &RunSpec{
			Config:  config.Default(),
			Policy:  pol,
			Sources: Mix(services.SocialNetwork(), 1.0, 400),
			Seed:    5,
		}
		res, err := spec.Run()
		if err != nil {
			t.Fatalf("%s: %v", pol.Name, err)
		}
		if res.Completed == 0 {
			t.Fatalf("%s: nothing completed", pol.Name)
		}
	}
}

func TestRunCoarseCatalog(t *testing.T) {
	apps := services.CoarseApps()
	spec := &RunSpec{
		Config:   services.CoarseConfig(),
		Policy:   engine.AccelFlow(),
		Sources:  SingleService(apps[0], Poisson{RPS: 500}, 60),
		Seed:     7,
		Programs: services.CoarseCatalog(),
		Remote:   map[string]engine.RemoteKind{},
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 60 {
		t.Errorf("completed %d/60", res.Completed)
	}
	// Coarse apps are ms-scale.
	if res.All.Mean() < 50*sim.Microsecond {
		t.Errorf("coarse app mean %v implausibly fast", res.All.Mean())
	}
}

// TestSizeSamplesOnlyWhenAsked runs the benchmark's sim-serial spec
// (the SocialNetwork mix at load 1.0 under AccelFlow, nothing
// attached) without SampleSizes: no accelerator may hold a Fig. 5 size
// sample. The same spec with SampleSizes samples, and runs the same
// events to the same latencies.
func TestSizeSamplesOnlyWhenAsked(t *testing.T) {
	run := func(sample bool) *RunResult {
		t.Helper()
		spec := &RunSpec{
			Config:      config.Default(),
			Policy:      engine.AccelFlow(),
			Sources:     Mix(services.SocialNetwork(), 1.0, 300),
			Seed:        1,
			SampleSizes: sample,
		}
		res, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, on := run(false), run(true)
	sampled := 0
	for kd, a := range off.Engine.Accels {
		if a.Stats.InSizes != nil || a.Stats.OutSizes != nil {
			t.Errorf("%v sampled %d input and %d output sizes without SampleSizes",
				config.AccelKind(kd), len(a.Stats.InSizes), len(a.Stats.OutSizes))
		}
		sampled += len(on.Engine.Accels[kd].Stats.InSizes)
	}
	if sampled == 0 {
		t.Error("no accelerator sampled a size with SampleSizes")
	}
	if p0, p1 := off.Engine.K.Processed(), on.Engine.K.Processed(); p0 != p1 {
		t.Errorf("SampleSizes changed the event count: %d without, %d with", p0, p1)
	}
	if m0, m1 := off.Net.Mean(), on.Net.Mean(); m0 != m1 {
		t.Errorf("SampleSizes changed the mean latency: %v without, %v with", m0, m1)
	}
}
