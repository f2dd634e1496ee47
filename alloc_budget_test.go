// Allocation-budget guards for the serial hot path. The budgets pin
// the allocations-per-request of a full obs-disabled run: generous
// enough to absorb runtime noise and minor drift, tight enough that
// reintroducing a per-event or per-invocation allocation (interface
// boxing in the kernel queue, per-pass dispatcher closures, per-span
// segment slices) blows through them immediately. Unlike timings,
// allocation counts are deterministic, so these are exact guards; the
// repository benchmark under bench/ tracks the measured value as
// sim.alloc_kb_per_req.
package main

import (
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/services"
)

// TestRunAllocBudgetPerRequest runs the social-network workload with
// observability disabled — the configuration every sweep cell uses —
// and pins allocations per request.
//
// Trajectory: an optimization pass (concrete event queue, pooled
// continuations, interned tags) moved this from ~636 allocs/request to
// ~58, and booking arrivals one at a time (one closure per source, not
// per arrival) to ~57, which the test logs. The budget of 120
// gives ~2x headroom; a regression to even a single allocation per
// kernel event would land around 85 events/request above the budget.
func TestRunAllocBudgetPerRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run allocation measurement")
	}
	svcs := services.SocialNetwork()
	cfg := config.Default()
	pol := engine.AccelFlow()
	avg := testing.AllocsPerRun(3, func() {
		spec := benchRunSpec(svcs, cfg, pol)
		if _, err := spec.Run(); err != nil {
			t.Fatal(err)
		}
	})
	perRequest := avg / benchRunRequests
	t.Logf("obs-disabled run: %.1f allocs/request (%.0f per %d-request run)",
		perRequest, avg, benchRunRequests)
	if perRequest > 120 {
		t.Errorf("obs-disabled run allocates %.1f allocs/request, budget 120", perRequest)
	}
}
