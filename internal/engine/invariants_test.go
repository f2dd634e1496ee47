package engine

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"accelflow/internal/check"
	"accelflow/internal/config"
	"accelflow/internal/sim"
)

// TestPropertyRequestConservation: every submitted request completes
// exactly once, for any policy, payload distribution, flag mix, and
// queue sizing — the fundamental liveness invariant of the engine
// (starvation/deadlock freedom, §IV-A).
func TestPropertyRequestConservation(t *testing.T) {
	pols := allPolicies()
	// A wall-clock bound on the whole property: an event loop fails the
	// test instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	f := func(polIdx uint8, payloadKB uint8, pComp uint8, small bool, n uint8) bool {
		pol := pols[int(polIdx)%len(pols)]
		cfg := config.Default()
		if small {
			// Tiny queues + few PEs exercise overflow and fallback.
			cfg.PEsPerAccel = 1
			cfg.InputQueueEntries = 2
			cfg.OverflowEntries = 1
		}
		k := sim.NewKernel()
		e, err := New(k, cfg, pol, Params{Seed: 11})
		if err != nil {
			return false
		}
		if err := e.Register(buildTestPrograms(), map[string]RemoteKind{"send": RemoteSvc}); err != nil {
			return false
		}
		reqs := int(n%40) + 1
		done := 0
		for i := 0; i < reqs; i++ {
			job := &Job{
				Service: "p",
				Steps: []Step{
					{Kind: StepChain, Trace: "recv"},
					{Kind: StepApp, App: sim.Microsecond},
					{Kind: StepChain, Trace: "send"},
				},
				Probs:         FlagProbs{PCompressed: float64(pComp%101) / 100, PFound: 1, PHit: 1},
				PayloadMedian: float64(payloadKB%64)*1024 + 128,
				PayloadSigma:  0.5,
			}
			e.Submit(job, func(Result) { done++ })
		}
		if err := k.RunCtx(ctx); err != nil {
			t.Fatalf("run did not drain: %v (likely an event loop)", err)
		}
		return done == reqs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestIdealNeverSlowerUnderLoad: the zero-overhead Ideal system must
// not have a worse tail than full AccelFlow at the same load.
func TestIdealNeverSlowerUnderLoad(t *testing.T) {
	p99 := func(pol Policy) sim.Time {
		k := sim.NewKernel()
		e, err := New(k, config.Default(), pol, Params{Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Register(buildTestPrograms(), nil); err != nil {
			t.Fatal(err)
		}
		var lats []sim.Time
		for i := 0; i < 300; i++ {
			at := sim.Time(i) * 2 * sim.Microsecond
			k.At(at, func() {
				e.Submit(simpleJob(Step{Kind: StepChain, Trace: "recv"}), func(r Result) {
					lats = append(lats, r.Latency)
				})
			})
		}
		k.Run()
		worst := sim.Time(0)
		for _, l := range lats {
			if l > worst {
				worst = l
			}
		}
		return worst
	}
	if ideal, af := p99(Ideal()), p99(AccelFlow()); ideal > af {
		t.Errorf("Ideal worst-case %v exceeds AccelFlow %v", ideal, af)
	}
}

// TestTenantIsolationUnderContention: with two tenants and a small
// per-tenant limit, both tenants' requests complete and the limit trips
// only for the flooding tenant's excess.
func TestTenantIsolationUnderContention(t *testing.T) {
	cfg := config.Default()
	cfg.TenantTraceLimit = 2
	k := sim.NewKernel()
	e, err := New(k, cfg, AccelFlow(), Params{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(buildTestPrograms(), nil); err != nil {
		t.Fatal(err)
	}
	done := map[int]int{}
	for i := 0; i < 30; i++ {
		tn := i % 2
		j := simpleJob(Step{Kind: StepChain, Trace: "recv"})
		j.Tenant = tn
		e.Submit(j, func(Result) { done[tn]++ })
	}
	k.Run()
	if done[0] != 15 || done[1] != 15 {
		t.Errorf("completions per tenant = %v, want 15/15", done)
	}
	if e.Stats.FallbacksTenant == 0 {
		t.Error("tenant limit never engaged under the flood")
	}
	if e.TenantActive(0) != 0 || e.TenantActive(1) != 0 {
		t.Error("tenant counters leaked")
	}
	// Scratchpads were wiped when PEs alternated tenants (§IV-D).
	var wipes uint64
	for _, kd := range config.AllAccelKinds() {
		wipes += e.Accels[kd].Stats.TenantWipes
	}
	if wipes == 0 {
		t.Error("no tenant scratchpad wipes recorded")
	}
}

// TestCheckEndReportsTenantLeaksInOrder: with two tenants leaking
// active traces, every CheckEnd call reports them in tenant order,
// whatever the accounting map's iteration order.
func TestCheckEndReportsTenantLeaksInOrder(t *testing.T) {
	e := testEngine(t, config.Default(), AccelFlow())
	e.tenantActive[7] = 2
	e.tenantActive[3] = 1
	want := []string{
		"tenant 3 shows 1 active traces at a drained horizon",
		"tenant 7 shows 2 active traces at a drained horizon",
	}
	for i := 0; i < 32; i++ {
		c := check.New()
		e.CheckEnd(c)
		var got []string
		for _, v := range c.Violations() {
			if v.Rule == "conservation" && v.Resource == "tenants" {
				got = append(got, v.Detail)
			}
		}
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("call %d: tenant violations = %q, want %q", i, got, want)
		}
	}
}
