package experiments

import (
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Requests: 120, Seed: 1, Quick: true} }

// TestEveryExperimentRuns checks every registry experiment's
// Parallelism 1 run in the shared quick pass: it must complete, carry
// its ID as its name, produce text, and fill its Values map.
func TestEveryExperimentRuns(t *testing.T) {
	runs := quickRegistry()
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			if testing.Short() && slowID(id) {
				t.Skip("throughput search is slow")
			}
			res, err := runs[id].p1.res, runs[id].p1.err
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if res.Name != id {
				t.Errorf("result name %q != id %q", res.Name, id)
			}
			if strings.TrimSpace(res.Text()) == "" {
				t.Errorf("%s produced no text", id)
			}
			if len(res.Values) == 0 {
				t.Errorf("%s produced no values", id)
			}
		})
	}
}

func TestIDsSortedAndComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Fatalf("IDs() returned %d of %d", len(ids), len(Registry))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Errorf("IDs not sorted at %d: %s >= %s", i, ids[i-1], ids[i])
		}
	}
	for _, want := range []string{"fig1", "fig11", "fig13", "fig14", "tab4", "area", "energy"} {
		if _, ok := Registry[want]; !ok {
			t.Errorf("registry missing %q", want)
		}
	}
}

func TestOptionsScaling(t *testing.T) {
	if (Options{}).reqs() != 2500 {
		t.Error("zero Requests should default")
	}
	if (Options{Requests: 9000, Quick: true}).reqs() != 400 {
		t.Error("Quick did not cap the budget")
	}
	if (Options{Requests: 100, Quick: true}).reqs() != 100 {
		t.Error("Quick should not raise small budgets")
	}
	if DefaultOptions().Requests <= 0 {
		t.Error("DefaultOptions has no budget")
	}
}

// TestFig1ShapeMatchesPaper checks the headline Fig. 1 claim at test
// scale: app logic is a minority share, and TCP + (De)Ser dominate the
// tax, matching the paper's ordering.
func TestFig1ShapeMatchesPaper(t *testing.T) {
	res, err := Fig1Breakdown(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	app := res.Values["avg/app_share"]
	if app < 0.10 || app > 0.35 {
		t.Errorf("app share %.2f outside the paper's band (~0.21)", app)
	}
	if res.Values["avg/tcp"] < res.Values["avg/rpc"] {
		t.Error("TCP share below RPC share; calibration broken")
	}
	if res.Values["avg/ser"] < res.Values["avg/ldb"] {
		t.Error("(De)Ser share below LdB share; calibration broken")
	}
}

// TestFig13LadderMonotone checks the ablation ordering: each added
// technique must not hurt the average tail.
func TestFig13LadderMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("mix runs are slow")
	}
	res, err := Fig13Ablation(Options{Requests: 200, Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	af := res.Values["reduction/AccelFlow"]
	direct := res.Values["reduction/Direct"]
	if af <= 0 {
		t.Errorf("AccelFlow reduction vs RELIEF = %.2f, want positive", af)
	}
	if af < direct-0.1 {
		t.Errorf("full AccelFlow (%.2f) clearly worse than Direct (%.2f)", af, direct)
	}
}

// TestTab4MeasuredCounts verifies the measured per-request accelerator
// counts track Table IV within sampling tolerance.
func TestTab4MeasuredCounts(t *testing.T) {
	res, err := Tab4Paths(Options{Requests: 600, Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range []string{"CPost", "UniqId", "Login"} {
		paper := res.Values[svc+"/paper"]
		meas := res.Values[svc+"/measured"]
		if meas < paper*0.8 || meas > paper*1.25 {
			t.Errorf("%s: measured %.1f vs Table IV %.0f", svc, meas, paper)
		}
	}
}

// TestAreaMatchesPaper checks the §VI constants.
func TestAreaMatchesPaper(t *testing.T) {
	res, err := AreaAccounting(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Values["accel_mm2"]; v < 40 || v > 50 {
		t.Errorf("accelerator area %.1fmm2, paper says 44.9", v)
	}
	if v := res.Values["overhead_frac"]; v > 0.035 {
		t.Errorf("AccelFlow overhead %.1f%% exceeds the paper's <=2.9%% band", v*100)
	}
}
