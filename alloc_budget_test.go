// Allocation-budget guards for the serial hot path. The budgets pin
// the allocations-per-request of a full obs-disabled run under every
// policy the paper sweeps, and of a fleet run: generous enough to
// absorb runtime noise and minor drift, tight enough that
// reintroducing a per-request, per-event or per-hop allocation
// (interface boxing in the kernel queue, per-pass dispatcher closures,
// per-hop or per-request continuation closures, per-span segment
// slices) blows through them immediately. Unlike timings, allocation counts
// are deterministic, so these are exact guards; the repository
// benchmark under bench/ tracks the measured value as
// sim.alloc_kb_per_req.
package main

import (
	"runtime"
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/services"
)

// TestRunAllocBudgetPerRequest runs the social-network workload with
// observability disabled — the configuration every sweep cell uses —
// under each swept policy, and pins allocations per request. It logs
// allocations and bytes per request.
//
// Trajectory (AccelFlow): an optimization pass (concrete event queue,
// pooled continuations, interned tags) moved this from ~636
// allocs/request to ~58, and booking arrivals one at a time (one
// closure per source, not per arrival) to ~57, under a budget of 120.
// Making each entry the pooled record of its own continuation, and
// pooling queued Resource tasks, DMA spill joins and CPU segments,
// took it to 17.4, and the other policies from 35–141 to 15–17
// (Non-acc 15.1, CPU-Centric 16.1, RELIEF 16.6, Cohort 16.3). Making
// each request and chain the pooled record of its continuation too,
// pooling armed response slots, building each source's job and
// completion callback once and sizing the recorders up front took
// AccelFlow to 3.9 and the others to 3.6–5.0 (Non-acc 3.6,
// CPU-Centric 4.2, RELIEF 5.0, Cohort 4.6). Each budget is ~1.5x the
// measured value: a regression to one allocation per request, per hop
// or per kernel event lands above it.
func TestRunAllocBudgetPerRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run allocation measurement")
	}
	svcs := services.SocialNetwork()
	cfg := config.Default()
	for _, tc := range []struct {
		pol    engine.Policy
		budget float64
	}{
		{engine.NonAcc(), 5.5},
		{engine.CPUCentric(), 6.5},
		{engine.RELIEF(), 7.5},
		{engine.Cohort(engine.DefaultCohortPairs()), 7},
		{engine.AccelFlow(), 6},
	} {
		t.Run(tc.pol.Name, func(t *testing.T) {
			allocs, bytes := allocsPerRun(3, func() {
				spec := benchRunSpec(svcs, cfg, tc.pol)
				if _, err := spec.Run(); err != nil {
					t.Fatal(err)
				}
			})
			perRequest := allocs / benchRunRequests
			t.Logf("obs-disabled run: %.1f allocs/request, %.0f bytes/request (%.0f allocs per %d-request run)",
				perRequest, bytes/benchRunRequests, allocs, benchRunRequests)
			if perRequest > tc.budget {
				t.Errorf("obs-disabled run allocates %.1f allocs/request, budget %.1f", perRequest, tc.budget)
			}
		})
	}
}

// TestFleetAllocBudgetPerRequest pins allocations per request of the
// FleetSpec path: the benchmark's 8-replica fleet, obs disabled, at
// GOMAXPROCS 1 (allocsPerRun), so replicas run one after another on
// the caller's goroutine. Besides the engine's per-request work it
// covers the ingress: drawing, merging and dealing the arrivals, and
// booking each replica's share.
//
// Trajectory: 15.5 allocs/request before requests, chains and each
// source's job and callbacks were pooled or built once, 1.3 after,
// 1.1 once replicas ran on their own kernels, under a budget of 2
// (~1.5x). A closure per dealt arrival or per completion lands above
// it.
func TestFleetAllocBudgetPerRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run allocation measurement")
	}
	svcs := services.SocialNetwork()
	cfg := config.Default()
	pol := engine.AccelFlow()
	allocs, bytes := allocsPerRun(2, func() {
		if _, err := benchFleetSpec(svcs, cfg, pol).Run(); err != nil {
			t.Fatal(err)
		}
	})
	perRequest := allocs / benchFleetRequests
	t.Logf("obs-disabled fleet run: %.1f allocs/request, %.0f bytes/request (%.0f allocs per %d-request run)",
		perRequest, bytes/benchFleetRequests, allocs, benchFleetRequests)
	if budget := 2.0; perRequest > budget {
		t.Errorf("obs-disabled fleet run allocates %.1f allocs/request, budget %.1f", perRequest, budget)
	}
}

// allocsPerRun is testing.AllocsPerRun that also reports bytes: the
// mean allocations and bytes allocated per call of f, after one
// warm-up call, with GOMAXPROCS at 1 so other goroutines add nothing.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
