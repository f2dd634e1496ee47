package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// update regenerates the golden file from the shared pass's
// Parallelism 1 runs:
//
//	go test ./internal/experiments -run TestGoldenQuickValues -update
var update = flag.Bool("update", false, "rewrite testdata golden files")

const goldenPath = "testdata/golden_quick.json"

// goldenOptions pins the quick-mode trajectory the golden file
// captures. Requests is set explicitly so the capture stays CI-sized;
// Seed 1 and Quick mirror the CLI's -quick run. Parallelism is left to
// the shared pass, which runs every experiment at 1 and at 8 and
// requires both to agree bit for bit.
func goldenOptions() Options { return Options{Requests: 150, Seed: 1, Quick: true} }

// goldenTolerance is the per-key relative tolerance. Runs are
// deterministic on a fixed toolchain, so the slack only absorbs
// last-ulp libm differences across platforms; any real modeling change
// must be re-blessed with -update.
func goldenTolerance(key string) float64 { return 1e-9 }

// slowID marks the throughput searches -short leaves out of the
// checks that need more than one run of them.
func slowID(id string) bool { return id == "fig14" || id == "fig15" }

// passRun is one run of an experiment in the shared quick pass.
type passRun struct {
	res *Result
	err error
}

// registryRuns is what the shared quick pass holds for one registry
// experiment.
type registryRuns struct {
	p1      passRun   // Parallelism 1, with keys auditing its cells
	p8      passRun   // Parallelism 8; not run for slowID under -short
	p8Again passRun   // a second Parallelism 8 run; not run for fig14
	keys    *keyAudit // every cell key the p1 run reported
}

// quickPass is the shared quick pass: the whole registry at
// goldenOptions, run once per test binary because it is the most
// expensive thing the package does. The golden comparison, the
// every-experiment checks, the cell-key audit, the parallelism
// contract and the fig14 paper-shape test all read it.
var quickPass struct {
	once sync.Once
	runs map[string]*registryRuns
}

// quickRegistry runs the shared quick pass on first use and returns
// its runs by registry ID. The runs go to GOMAXPROCS workers in
// registry order, each experiment's runs back to back, so fig14's
// long searches overlap the rest of the registry.
func quickRegistry() map[string]*registryRuns {
	quickPass.once.Do(func() {
		var jobs []func()
		run := func(dst *passRun, id string, parallelism int, onCell func(CellEvent)) {
			jobs = append(jobs, func() {
				o := goldenOptions()
				o.Parallelism, o.OnCell = parallelism, onCell
				dst.res, dst.err = Registry[id](o)
			})
		}
		quickPass.runs = map[string]*registryRuns{}
		for _, id := range IDs() {
			r := &registryRuns{keys: newKeyAudit()}
			quickPass.runs[id] = r
			run(&r.p1, id, 1, r.keys.onCell)
			if testing.Short() && slowID(id) {
				continue
			}
			run(&r.p8, id, 8, nil)
			if id != "fig14" {
				run(&r.p8Again, id, 8, nil)
			}
		}
		fanOut(context.Background(), runtime.GOMAXPROCS(0), len(jobs),
			func(i int) { jobs[i]() }, func(int) {})
	})
	return quickPass.runs
}

// TestGoldenQuickValues locks every Registry entry's Values behind the
// committed golden file, so future PRs cannot silently shift the
// paper-shape results: a drifted value fails here with the offending
// key, and an intentional change is re-blessed with -update.
func TestGoldenQuickValues(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry sweep is slow")
	}
	got := map[string]map[string]float64{}
	for id, r := range quickRegistry() {
		if r.p1.err != nil {
			t.Fatalf("%s: %v", id, r.p1.err)
		}
		got[id] = r.p1.res.Values
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d experiments)", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	want := map[string]map[string]float64{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}

	for id, wantVals := range want {
		gotVals, ok := got[id]
		if !ok {
			t.Errorf("experiment %q in golden file but not in registry", id)
			continue
		}
		for key, w := range wantVals {
			g, ok := gotVals[key]
			if !ok {
				t.Errorf("%s: key %q vanished (golden has it)", id, key)
				continue
			}
			tol := goldenTolerance(id + "/" + key)
			if !withinTol(g, w, tol) {
				t.Errorf("%s: %q = %v, golden %v (rel tol %g) — rerun with -update if intentional", id, key, g, w, tol)
			}
		}
		for key := range gotVals {
			if _, ok := wantVals[key]; !ok {
				t.Errorf("%s: new key %q not in golden file — rerun with -update", id, key)
			}
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			t.Errorf("experiment %q missing from golden file — rerun with -update", id)
		}
	}
}

// withinTol compares with relative tolerance, treating exact equality
// (including both zero, both NaN-free) as always passing.
func withinTol(got, want, tol float64) bool {
	if got == want {
		return true
	}
	denom := math.Abs(want)
	if denom < 1 {
		denom = 1
	}
	return math.Abs(got-want) <= tol*denom
}
