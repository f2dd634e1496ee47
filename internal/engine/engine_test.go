package engine

import (
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/sim"
	"accelflow/internal/trace"
)

// testPrograms builds a tiny catalog: a receive trace with a branch, a
// send trace with a remote tail, its continuation, and a forking trace.
func testPrograms(t *testing.T) []*trace.Program {
	t.Helper()
	return buildTestPrograms()
}

func buildTestPrograms() []*trace.Program {
	return []*trace.Program{
		trace.New("recv").
			Seq(config.TCP, config.Decr, config.Dser).
			Branch(trace.CondCompressed, trace.Sub().Seq(config.Dcmp), nil).
			Seq(config.LdB).
			MustBuild(),
		trace.New("send").
			Seq(config.Ser, config.Encr, config.TCP).
			Tail("recv2").
			MustBuild(),
		trace.New("recv2").
			Seq(config.TCP, config.Decr, config.Dser, config.LdB).
			MustBuild(),
		trace.New("forky").
			Seq(config.Ser).
			Fork("side").
			Seq(config.Encr, config.TCP).
			MustBuild(),
		trace.New("side").
			Seq(config.Cmp, config.Ser).
			MustBuild(),
	}
}

func testEngine(t *testing.T, cfg *config.Config, pol Policy) *Engine {
	t.Helper()
	k := sim.NewKernel()
	e, err := New(k, cfg, pol, Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(testPrograms(t), map[string]RemoteKind{"send": RemoteSvc}); err != nil {
		t.Fatal(err)
	}
	return e
}

func simpleJob(steps ...Step) *Job {
	return &Job{
		Service: "test", Steps: steps,
		Probs:         FlagProbs{PCompressed: 0.0, PFound: 1, PHit: 1},
		PayloadMedian: 1024, PayloadSigma: 0.3,
	}
}

func allPolicies() []Policy {
	return []Policy{
		NonAcc(), CPUCentric(), RELIEF(), RELIEFPerTypeQ(), Direct(),
		CntrFlow(), AccelFlow(), AccelFlowEDF(), Ideal(),
		Cohort(DefaultCohortPairs()),
	}
}

func TestSingleChainCompletesUnderEveryPolicy(t *testing.T) {
	for _, pol := range allPolicies() {
		e := testEngine(t, config.Default(), pol)
		var got *Result
		e.Submit(simpleJob(Step{Kind: StepChain, Trace: "recv"}), func(r Result) { got = &r })
		e.K.Run()
		if got == nil {
			t.Fatalf("%s: request never completed", pol.Name)
		}
		if got.Latency <= 0 {
			t.Errorf("%s: nonpositive latency %v", pol.Name, got.Latency)
		}
		if pol.UseAccels && got.Accels != 4 {
			t.Errorf("%s: %d accels, want 4 (uncompressed recv)", pol.Name, got.Accels)
		}
	}
}

func TestRemoteTailChainCompletes(t *testing.T) {
	for _, pol := range allPolicies() {
		e := testEngine(t, config.Default(), pol)
		var got *Result
		e.Submit(simpleJob(Step{Kind: StepChain, Trace: "send"}), func(r Result) { got = &r })
		e.K.Run()
		if got == nil {
			t.Fatalf("%s: chained request never completed", pol.Name)
		}
		// The remote wait must show up in latency: at least the RTT.
		if got.Latency < config.Default().RemoteRTT {
			t.Errorf("%s: latency %v below remote RTT", pol.Name, got.Latency)
		}
		if pol.UseAccels && got.Accels != 7 {
			t.Errorf("%s: %d accels, want 7 (send 3 + recv2 4)", pol.Name, got.Accels)
		}
	}
}

func TestForkJoins(t *testing.T) {
	for _, pol := range allPolicies() {
		e := testEngine(t, config.Default(), pol)
		var got *Result
		e.Submit(simpleJob(Step{Kind: StepChain, Trace: "forky"}), func(r Result) { got = &r })
		e.K.Run()
		if got == nil {
			t.Fatalf("%s: forked request never completed", pol.Name)
		}
		if pol.UseAccels && got.Accels != 5 {
			t.Errorf("%s: %d accels, want 5 (forky 3 + side 2)", pol.Name, got.Accels)
		}
		if e.Stats.ForksSpawned != 1 {
			t.Errorf("%s: %d forks, want 1", pol.Name, e.Stats.ForksSpawned)
		}
	}
}

func TestBranchChangesPath(t *testing.T) {
	e := testEngine(t, config.Default(), AccelFlow())
	var plain, compressed *Result
	e.Submit(simpleJob(Step{Kind: StepChain, Trace: "recv"}), func(r Result) { plain = &r })
	e.K.Run()
	e2 := testEngine(t, config.Default(), AccelFlow())
	job := simpleJob(Step{Kind: StepChain, Trace: "recv"})
	job.Probs.PCompressed = 1.0
	e2.Submit(job, func(r Result) { compressed = &r })
	e2.K.Run()
	if plain.Accels != 4 || compressed.Accels != 5 {
		t.Errorf("accels = %d/%d, want 4/5", plain.Accels, compressed.Accels)
	}
	if compressed.Latency <= plain.Latency {
		t.Errorf("compressed path (%v) not slower than plain (%v)", compressed.Latency, plain.Latency)
	}
}

func TestAppStepsBreakdown(t *testing.T) {
	e := testEngine(t, config.Default(), AccelFlow())
	var got *Result
	e.Submit(simpleJob(
		Step{Kind: StepApp, App: 10 * sim.Microsecond},
		Step{Kind: StepChain, Trace: "recv"},
		Step{Kind: StepApp, App: 5 * sim.Microsecond},
	), func(r Result) { got = &r })
	e.K.Run()
	if got.Breakdown.App != 15*sim.Microsecond {
		t.Errorf("App = %v, want 15us", got.Breakdown.App)
	}
	if got.Breakdown.Accel <= 0 || got.Breakdown.Orch <= 0 || got.Breakdown.Comm <= 0 {
		t.Errorf("breakdown has empty components: %+v", got.Breakdown)
	}
	if got.Breakdown.Total() > got.Latency+got.Breakdown.Total()/10 {
		t.Errorf("breakdown total %v far exceeds latency %v", got.Breakdown.Total(), got.Latency)
	}
}

func TestNonAccTaxAttribution(t *testing.T) {
	e := testEngine(t, config.Default(), NonAcc())
	var got *Result
	e.Submit(simpleJob(Step{Kind: StepChain, Trace: "recv"}), func(r Result) { got = &r })
	e.K.Run()
	cfg := config.Default()
	for _, k := range []config.AccelKind{config.TCP, config.Decr, config.Dser, config.LdB} {
		if got.Breakdown.Tax[k] <= 0 {
			t.Errorf("Tax[%v] = 0 on the Non-acc path", k)
		}
	}
	if got.Breakdown.Accel != 0 {
		t.Error("Non-acc recorded accelerator time")
	}
	// CPU time should roughly equal the summed CPU costs.
	var want sim.Time
	for _, k := range []config.AccelKind{config.TCP, config.Decr, config.Dser, config.LdB} {
		want += cfg.CPUCost(k, 1024)
	}
	if got.Breakdown.CPU < want/2 {
		t.Errorf("CPU time %v implausibly below op-sum %v", got.Breakdown.CPU, want)
	}
}

func TestParallelStepJoins(t *testing.T) {
	e := testEngine(t, config.Default(), AccelFlow())
	var got *Result
	e.Submit(simpleJob(Step{Kind: StepParallel, Par: []string{"recv", "recv", "recv"}}), func(r Result) { got = &r })
	e.K.Run()
	if got == nil {
		t.Fatal("parallel request never completed")
	}
	if got.Accels != 12 {
		t.Errorf("accels = %d, want 12", got.Accels)
	}
	// Three parallel chains should finish in well under 3x one chain.
	e2 := testEngine(t, config.Default(), AccelFlow())
	var one *Result
	e2.Submit(simpleJob(Step{Kind: StepChain, Trace: "recv"}), func(r Result) { one = &r })
	e2.K.Run()
	if got.Latency >= 3*one.Latency {
		t.Errorf("parallel latency %v not overlapping (single %v)", got.Latency, one.Latency)
	}
}

func TestTenantLimitForcesFallback(t *testing.T) {
	cfg := config.Default()
	cfg.TenantTraceLimit = 1
	e := testEngine(t, cfg, AccelFlow())
	done := 0
	for i := 0; i < 4; i++ {
		e.Submit(simpleJob(Step{Kind: StepChain, Trace: "recv"}), func(Result) { done++ })
	}
	e.K.Run()
	if done != 4 {
		t.Fatalf("completed %d/4", done)
	}
	if e.Stats.FallbacksTenant == 0 {
		t.Error("tenant limit never tripped")
	}
	if e.TenantActive(0) != 0 {
		t.Errorf("tenant counter leaked: %d", e.TenantActive(0))
	}
}

func TestQueueSaturationFallsBackToCPU(t *testing.T) {
	cfg := config.Default()
	cfg.PEsPerAccel = 1
	cfg.InputQueueEntries = 2
	cfg.OverflowEntries = 2
	e := testEngine(t, cfg, AccelFlow())
	done := 0
	const n = 300
	for i := 0; i < n; i++ {
		e.Submit(simpleJob(Step{Kind: StepChain, Trace: "recv"}), func(Result) { done++ })
	}
	e.K.Run()
	if done != n {
		t.Fatalf("completed %d/%d", done, n)
	}
	if e.Stats.FallbacksQueue == 0 {
		t.Error("no queue fallbacks despite tiny queues under flood")
	}
}

func TestTimeoutPath(t *testing.T) {
	cfg := config.Default()
	// A timeout far below every remote service draw (9-25us lognormal)
	// makes everything time out; RTT shrinks with it to keep the
	// TCPTimeout > RemoteRTT validation rule satisfied.
	cfg.RemoteRTT = 100 * sim.Nanosecond
	cfg.TCPTimeout = 1 * sim.Microsecond
	e := testEngine(t, cfg, AccelFlow())
	var got *Result
	e.Submit(simpleJob(Step{Kind: StepChain, Trace: "send"}), func(r Result) { got = &r })
	e.K.Run()
	if got == nil {
		t.Fatal("timed-out request never completed")
	}
	if !got.TimedOut {
		t.Error("request did not report timeout")
	}
	if e.Stats.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", e.Stats.Timeouts)
	}
}

func TestMediatorCountsLadder(t *testing.T) {
	// Under Direct, branches and tails exist but the dispatcher cannot
	// resolve branches: mediator counters must tick.
	e := testEngine(t, config.Default(), Direct())
	var got *Result
	e.Submit(simpleJob(Step{Kind: StepChain, Trace: "recv"}), func(r Result) { got = &r })
	e.K.Run()
	if got == nil {
		t.Fatal("incomplete")
	}
	if e.Stats.MediatorBranches == 0 {
		t.Error("Direct policy resolved a branch without the mediator")
	}
	// Under CntrFlow the dispatcher resolves branches.
	e2 := testEngine(t, config.Default(), CntrFlow())
	e2.Submit(simpleJob(Step{Kind: StepChain, Trace: "recv"}), func(Result) {})
	e2.K.Run()
	if e2.Stats.MediatorBranches != 0 {
		t.Error("CntrFlow bounced a branch to the mediator")
	}
}

func TestPolicyLatencyOrdering(t *testing.T) {
	// On a single unloaded request with a branch, the ladder should not
	// get slower as capabilities are added.
	lat := map[string]sim.Time{}
	for _, pol := range []Policy{RELIEF(), Direct(), CntrFlow(), AccelFlow(), Ideal()} {
		e := testEngine(t, config.Default(), pol)
		job := simpleJob(Step{Kind: StepChain, Trace: "recv"})
		job.Probs.PCompressed = 1
		var got *Result
		e.Submit(job, func(r Result) { got = &r })
		e.K.Run()
		lat[pol.Name] = got.Latency
	}
	if !(lat["AccelFlow"] <= lat["CntrFlow"] && lat["CntrFlow"] <= lat["Direct"] && lat["Direct"] <= lat["RELIEF"]) {
		t.Errorf("ladder latency not monotone: %v", lat)
	}
	if lat["Ideal"] > lat["AccelFlow"] {
		t.Errorf("Ideal (%v) slower than AccelFlow (%v)", lat["Ideal"], lat["AccelFlow"])
	}
}

func TestGlueInstructionAccounting(t *testing.T) {
	e := testEngine(t, config.Default(), AccelFlow())
	for i := 0; i < 50; i++ {
		e.Submit(simpleJob(Step{Kind: StepChain, Trace: "recv"}), nil)
	}
	e.K.Run()
	var instrs, passes uint64
	for _, kd := range config.AllAccelKinds() {
		instrs += e.Accels[kd].Stats.GlueInstrs
		passes += e.Accels[kd].Stats.GluePasses
	}
	if passes == 0 {
		t.Fatal("no glue passes recorded")
	}
	mean := float64(instrs) / float64(passes)
	// §VII-B.2: typical pass ~15, average ~18, worst ~50.
	if mean < 12 || mean > 35 {
		t.Errorf("mean glue instructions = %.1f, want in [12,35]", mean)
	}
}

func TestEDFReordersUnderBacklog(t *testing.T) {
	cfg := config.Default()
	cfg.PEsPerAccel = 1
	e := testEngine(t, cfg, AccelFlowEDF())
	var order []string
	submit := func(name string, slo sim.Time) {
		j := simpleJob(Step{Kind: StepChain, Trace: "recv"})
		j.Service = name
		j.SLO = slo
		e.Submit(j, func(Result) { order = append(order, name) })
	}
	// Flood so queues build, with the tight-SLO job last.
	for i := 0; i < 10; i++ {
		submit("loose", 100*sim.Millisecond)
	}
	submit("tight", 50*sim.Microsecond)
	e.K.Run()
	if len(order) != 11 {
		t.Fatalf("completed %d/11", len(order))
	}
	pos := -1
	for i, n := range order {
		if n == "tight" {
			pos = i
		}
	}
	if pos > 5 {
		t.Errorf("tight-deadline job finished at position %d; EDF should promote it", pos)
	}
}

func TestUnregisteredTracePanics(t *testing.T) {
	e := testEngine(t, config.Default(), AccelFlow())
	defer func() {
		if recover() == nil {
			t.Error("unregistered trace did not panic")
		}
	}()
	e.Submit(simpleJob(Step{Kind: StepChain, Trace: "nope"}), nil)
	e.K.Run()
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := config.Default()
	cfg.Cores = 0
	if _, err := New(sim.NewKernel(), cfg, AccelFlow(), Params{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Time {
		e := testEngine(t, config.Default(), AccelFlow())
		var total sim.Time
		for i := 0; i < 20; i++ {
			e.Submit(simpleJob(Step{Kind: StepChain, Trace: "send"}), func(r Result) { total += r.Latency })
		}
		e.K.Run()
		return total
	}
	if run() != run() {
		t.Error("identical seeds produced different results")
	}
}

// TestTailRefreshesTraceBytes checks that every A-DMA transfer charges
// the encoded size of the program the entry is running, so the size
// the entry caches when a tail program replaces its trace cannot go
// stale. Each invoke is reached through one transfer (the core's DMA
// for the first, a dispatcher hop for the rest; the head does not
// start with TCP, whose receive trace the arriving message triggers),
// and the final results DMA carries no trace. So with a fixed,
// size-preserving payload the trace bytes moved are the head's size
// per head invoke plus the tail's size per tail invoke.
func TestTailRefreshesTraceBytes(t *testing.T) {
	head := trace.New("head").Seq(config.Encr).Tail("tail").MustBuild()
	tail := trace.New("tail").
		Seq(config.Encr, config.TCP, config.LdB, config.TCP, config.Encr, config.TCP, config.LdB).
		MustBuild()
	hb, tb := head.EncodedBytes(), tail.EncodedBytes()
	if hb == tb {
		t.Fatalf("head and tail both encode to %d bytes; the test needs them to differ", hb)
	}
	e, err := New(sim.NewKernel(), config.Default(), AccelFlow(), Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register([]*trace.Program{head, tail}, nil); err != nil {
		t.Fatal(err)
	}
	const payload = 1024
	job := &Job{Service: "test", Steps: []Step{{Kind: StepChain, Trace: "head"}}, PayloadMedian: payload}
	var got *Result
	e.Submit(job, func(r Result) { got = &r })
	e.K.Run()
	if got == nil || got.Accels != 8 {
		t.Fatalf("request result %+v, want completion through 8 accelerators", got)
	}
	traceBytes := e.DMA.BytesMoved - e.DMA.Transfers*payload
	if want := uint64(1*hb + 7*tb); traceBytes != want {
		t.Errorf("transfers moved %d trace bytes, want %d (1 x %d head + 7 x %d tail)", traceBytes, want, hb, tb)
	}
}
