// Paper-shape invariants: the qualitative orderings the reproduction
// exists to preserve. Exact values drift as the model is recalibrated
// (the golden file tracks that); these tests instead pin down *who
// wins*, so a regression that flips an ordering fails loudly even after
// a legitimate -update of the goldens.
package experiments

import (
	"testing"

	"accelflow/internal/services"
)

// avgAcross averages res.Values[pol+"/"+svc+suffix] over the services.
func avgAcross(t *testing.T, res *Result, pol, suffix string, svcs []string) float64 {
	t.Helper()
	var sum float64
	for _, svc := range svcs {
		v, ok := res.Values[pol+"/"+svc+suffix]
		if !ok {
			t.Fatalf("%s: missing value %q", res.Name, pol+"/"+svc+suffix)
		}
		sum += v
	}
	return sum / float64(len(svcs))
}

// TestFig11TailOrdering: at the Fig. 11 load, the paper's headline
// ordering must hold — AccelFlow's P99 below RELIEF's, RELIEF's below
// CPU-Centric's, and CPU-Centric's below Non-acc's. The budget and
// seed are pinned: the RELIEF-vs-CPU-Centric gap only opens once the
// run is long enough for CPU-Centric's orchestration load to saturate
// cores (clearly visible at the full scale of results_full.txt), and
// 600 requests per service is the smallest budget where that regime is
// reached at test cost. Runs are deterministic, so this is a stable
// trajectory, not a flaky sample.
func TestFig11TailOrdering(t *testing.T) {
	res, err := Fig11Latency(Options{Requests: 600, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, svc := range services.SocialNetwork() {
		names = append(names, svc.Name)
	}
	af := avgAcross(t, res, "AccelFlow", "/p99us", names)
	rl := avgAcross(t, res, "RELIEF", "/p99us", names)
	cc := avgAcross(t, res, "CPU-Centric", "/p99us", names)
	na := avgAcross(t, res, "Non-acc", "/p99us", names)
	if !(af < rl) {
		t.Errorf("AccelFlow P99 %.0fus not below RELIEF %.0fus", af, rl)
	}
	if !(rl < cc) {
		t.Errorf("RELIEF P99 %.0fus not below CPU-Centric %.0fus", rl, cc)
	}
	if !(cc < na) {
		t.Errorf("CPU-Centric P99 %.0fus not below Non-acc %.0fus", cc, na)
	}
}

// TestFig14ThroughputOrdering: maximum throughput under SLO must rank
// Ideal >= AccelFlow > RELIEF > Non-acc (Fig. 14's shape; the paper
// has AccelFlow at 8.3x Non-acc, 2.2x RELIEF, within 8% of Ideal).
// Reuses the shared quick pass rather than paying for another
// throughput search.
func TestFig14ThroughputOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput search is slow")
	}
	run := quickRegistry()["fig14"].p1
	if run.err != nil {
		t.Fatal(run.err)
	}
	res := run.res
	geo := func(pol string) float64 {
		v, ok := res.Values[pol+"/geomean_krps"]
		if !ok {
			t.Fatalf("missing geomean for %s", pol)
		}
		return v
	}
	af, rl, na, id := geo("AccelFlow"), geo("RELIEF"), geo("Non-acc"), geo("Ideal")
	if !(af > rl) {
		t.Errorf("AccelFlow throughput %.0f not above RELIEF %.0f", af, rl)
	}
	if !(rl > na) {
		t.Errorf("RELIEF throughput %.0f not above Non-acc %.0f", rl, na)
	}
	// Ideal may tie AccelFlow at quick tolerances, but must not lose
	// by more than the search's own tolerance band.
	if af > id*1.25 {
		t.Errorf("AccelFlow throughput %.0f implausibly above Ideal %.0f", af, id)
	}
}

// TestFig13AblationLadder: each successive technique of the ablation
// (PerAccTypeQ -> Direct -> CntrFlow -> AccelFlow) must not clearly
// hurt the average tail — the cumulative reduction vs RELIEF is
// monotone within a small sampling slack, and the full system's
// reduction is strictly positive.
func TestFig13AblationLadder(t *testing.T) {
	res, err := Fig13Ablation(Options{Requests: 200, Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	ladder := []string{"PerAccTypeQ", "Direct", "CntrFlow", "AccelFlow"}
	const slack = 0.08 // quick-mode sampling noise on a reduction in [0,1]
	prev := 0.0
	for _, step := range ladder {
		r, ok := res.Values["reduction/"+step]
		if !ok {
			t.Fatalf("missing reduction for %s", step)
		}
		if r < prev-slack {
			t.Errorf("%s reduction %.3f clearly below previous step's %.3f", step, r, prev)
		}
		if r > prev {
			prev = r
		}
	}
	if af := res.Values["reduction/AccelFlow"]; af <= 0 {
		t.Errorf("full AccelFlow reduction vs RELIEF = %.3f, want positive", af)
	}
}
