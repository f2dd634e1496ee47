package check

import (
	"math"
	"testing"

	"accelflow/internal/sim"
)

// TestErlangC pins the closed form against hand-checkable values.
func TestErlangC(t *testing.T) {
	// k=1: C(1, a) reduces to a exactly.
	for _, a := range []float64{0.1, 0.3, 0.5, 0.8} {
		if got := ErlangC(1, a); math.Abs(got-a) > 1e-12 {
			t.Errorf("ErlangC(1, %v) = %v, want %v", a, got, a)
		}
	}
	// k=2, a=1 (ρ=0.5): the textbook wait probability is 1/3.
	if got, want := ErlangC(2, 1.0), 1.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("ErlangC(2, 1) = %v, want %v", got, want)
	}
	// Degenerate and overloaded corners.
	if ErlangC(0, 0.5) != 0 || ErlangC(2, 0) != 0 {
		t.Error("degenerate ErlangC inputs must return 0")
	}
	if ErlangC(2, 2.5) != 1 {
		t.Error("overloaded ErlangC must return 1")
	}
}

func TestClosedFormCorners(t *testing.T) {
	if MD1MeanWait(0, sim.Microsecond) != 0 || MD1MeanWait(2e6, sim.Microsecond) != 0 {
		t.Error("degenerate/unstable M/D/1 must return 0")
	}
	if MMkMeanWait(0, sim.Microsecond, 2) != 0 || MMkMeanWait(3e6, sim.Microsecond, 2) != 0 {
		t.Error("degenerate/unstable M/M/k must return 0")
	}
	// M/M/1 via the k=1 path equals ρS/(1-ρ).
	s := sim.Microsecond
	lambda := 0.5e6 // ρ = 0.5
	want := 1.0e-6  // 0.5*1us/(1-0.5) = 1us
	if got := MMkMeanWait(lambda, s, 1).Seconds(); math.Abs(got-want) > 1e-12 {
		t.Errorf("MM1 mean wait = %v s, want %v s", got, want)
	}
}

// simQueue drives a bare kernel + resource as a G/G/k queue: Poisson
// arrivals at lambda (per second), service times drawn by draw, k
// servers. Returns the mean observed queueing wait.
func simQueue(t *testing.T, seed int64, lambda float64, k int, n int, draw func(*sim.RNG) sim.Time) sim.Time {
	t.Helper()
	kern := sim.NewKernel()
	r := sim.NewResource(kern, "oracle", k, sim.FIFO)
	arr := sim.NewRNG(sim.DeriveSeed(seed, "oracle/arrivals"))
	svc := sim.NewRNG(sim.DeriveSeed(seed, "oracle/service"))
	gap := sim.Time(math.Round(float64(sim.Second) / lambda))
	at := sim.Time(0)
	for i := 0; i < n; i++ {
		at += arr.Exp(gap)
		hold := draw(svc)
		kern.At(at, func() { r.Do(hold, nil) })
	}
	kern.Run()
	if int(r.TaskCount) != n {
		t.Fatalf("ran %d tasks, want %d", r.TaskCount, n)
	}
	// The invariant suite must hold on the bare oracle queue too.
	c := New()
	c.CheckResource(r, kern.Now())
	if err := c.Err(); err != nil {
		t.Fatalf("oracle queue violated invariants: %v", err)
	}
	return sim.Time(int64(r.WaitTime) / int64(r.TaskCount))
}

// relErr is the simulated-vs-analytic relative error.
func relErr(got, want sim.Time) float64 {
	return math.Abs(float64(got)-float64(want)) / float64(want)
}

// TestDifferentialMD1 compares the simulated single-server queue with
// deterministic service against the Pollaczek–Khinchine M/D/1 mean
// wait across utilization levels. The tolerance (documented in
// DESIGN.md §8) covers finite-sample noise at the fixed seed.
func TestDifferentialMD1(t *testing.T) {
	service := sim.Microsecond
	cases := []struct {
		rho float64
		n   int
		tol float64
	}{
		{0.3, 30000, 0.05},
		{0.6, 30000, 0.05},
		{0.8, 60000, 0.08},
	}
	for _, tc := range cases {
		lambda := tc.rho / service.Seconds()
		got := simQueue(t, 11, lambda, 1, tc.n, func(*sim.RNG) sim.Time { return service })
		want := MD1MeanWait(lambda, service)
		if e := relErr(got, want); e > tc.tol {
			t.Errorf("M/D/1 ρ=%.1f: simulated mean wait %v vs closed form %v (rel err %.3f > %.2f)",
				tc.rho, got, want, e, tc.tol)
		}
	}
}

// TestDifferentialMMk compares the simulated multi-server queue with
// exponential service against the Erlang-C M/M/k mean wait.
func TestDifferentialMMk(t *testing.T) {
	service := sim.Microsecond
	cases := []struct {
		k   int
		rho float64
		n   int
		tol float64
	}{
		{1, 0.6, 60000, 0.08},
		{4, 0.6, 60000, 0.08},
	}
	for _, tc := range cases {
		lambda := tc.rho * float64(tc.k) / service.Seconds()
		got := simQueue(t, 23, lambda, tc.k, tc.n, func(g *sim.RNG) sim.Time { return g.Exp(service) })
		want := MMkMeanWait(lambda, service, tc.k)
		if e := relErr(got, want); e > tc.tol {
			t.Errorf("M/M/%d ρ=%.1f: simulated mean wait %v vs closed form %v (rel err %.3f > %.2f)",
				tc.k, tc.rho, got, want, e, tc.tol)
		}
	}
}
