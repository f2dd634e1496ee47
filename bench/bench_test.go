package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"accelflow/internal/experiments"
	"accelflow/internal/serve"
)

// smallSize shrinks every operation and probe so the whole manifest
// test runs in seconds; the metric names and checks are the same.
var smallSize = sizes{
	setups:         1,
	slices:         2,
	serialRequests: 250,
	fleetRequests:  900,
	sweepIDs:       []string{"fig19"},
	kernelEvents:   20_000,
	resourceDos:    20_000,
	probeReps:      1,
	jobs:           jobShape{observed: 30, experiment: 20, tune: 30},
}

// testAccelsimd is the daemon binary TestMain builds for the daemon
// workloads.
var testAccelsimd string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		panic(err)
	}
	testAccelsimd = filepath.Join(dir, "accelsimd")
	build := exec.Command("go", "build", "-o", testAccelsimd, "accelflow/cmd/accelsimd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("building accelsimd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testConfig(t *testing.T, trace bool) *runConfig {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return &runConfig{seed: 1, seconds: 500 * time.Millisecond, trace: trace, accelsimd: testAccelsimd, root: root, size: smallSize}
}

type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestManifestSync runs every workload untraced and traced, each run
// measuring for half a second, and checks that the metrics it emits are
// exactly BENCHMARK.json's, names and units, in both directions, and
// that every operation passed its checks.
func TestManifestSync(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	units := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := map[string]string{}
		for _, e := range list {
			m[e.Name] = e.Unit
		}
		return m
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := units(man.EndToEnd)
			if trace {
				want = units(man.PerLayer)
			}
			t0 := time.Now()
			res, err := run(w, testConfig(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			t.Logf("%s trace=%v: %d operations in %v", w.name, trace, res.attempted, time.Since(t0).Round(time.Millisecond))
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.name, trace, res.failed, res.attempted)
			}
			got := map[string]string{}
			for _, d := range res.defs {
				if _, ok := res.metrics[d.name]; !ok {
					t.Errorf("%s trace=%v: %s has no value", w.name, trace, d.name)
				}
				got[d.name] = d.unit
			}
			for name, unit := range want {
				if got[name] != unit {
					t.Errorf("%s trace=%v: %s emitted with unit %q, BENCHMARK.json says %q", w.name, trace, name, got[name], unit)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: %s is not in BENCHMARK.json", w.name, trace, name)
				}
			}
			if len(res.metrics) != len(res.defs) {
				t.Errorf("%s trace=%v: %d values for %d metrics", w.name, trace, len(res.metrics), len(res.defs))
			}
			if trace {
				var sum float64
				for _, p := range cpuPackages {
					sum += res.metrics["cpu_share."+p].value
				}
				if math.Abs(sum-100) > 1 {
					t.Errorf("%s: cpu_share sums to %.3f%%", w.name, sum)
				}
			}
		}
	}
}

// A corrupted expectation must count as a failed operation: here the
// remembered digest of a seed, then a golden value, then a daemon
// job's values against a direct run.
func TestCorruptedExpectationCountsAsFailure(t *testing.T) {
	c := testConfig(t, false)
	s, err := setupSerial(c)
	if err != nil {
		t.Fatal(err)
	}
	ss := s.(*serialSession)
	d := ss.seen[c.seed]
	d.AccelCalls++
	ss.seen[c.seed] = d
	win, err := measure(workloadDef{opsPerSecond: 1}, s, nil, time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(win.opMs) != 1 || win.failed != 1 {
		t.Errorf("corrupted digest: %d of %d operations failed, want 1 of 1", win.failed, len(win.opMs))
	}

	p, err := setupParallel(c)
	if err != nil {
		t.Fatal(err)
	}
	ps := p.(*parallelSession)
	if err := ps.op(opEnv{}, 1); err != nil {
		t.Fatalf("sweep against the committed golden file: %v", err)
	}
	for k, v := range ps.golden["fig19"] {
		if v != 0 {
			ps.golden["fig19"][k] = v * (1 + 1e-6)
			break
		}
	}
	if err := ps.op(opEnv{}, 2); err == nil {
		t.Error("sweep against a corrupted golden value passed")
	}

	req := serve.JobRequest{Type: serve.JobExperiment, Experiment: "fig19", Quick: true, Requests: smallSize.jobs.experiment, Seed: 7}
	res, err := experiments.Registry["fig19"](experiments.Options{Requests: req.Requests, Seed: req.Seed, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(map[string]any{"values": res.Values, "lines": res.Lines})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := canonicalValues(good, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyDirect(&firstJob{req: req, values: canon}); err != nil {
		t.Fatalf("correct daemon values rejected: %v", err)
	}
	for k := range res.Values {
		res.Values[k] += 1
		break
	}
	bad, _ := json.Marshal(map[string]any{"values": res.Values, "lines": res.Lines})
	if canon, err = canonicalValues(bad, true); err != nil {
		t.Fatal(err)
	}
	if err := verifyDirect(&firstJob{req: req, values: canon}); err == nil {
		t.Error("corrupted daemon value passed the direct-run comparison")
	}
}

// cannedTop is `go tool pprof -top` output in the shape the toolchain
// prints it.
const cannedTop = `File: bench
Type: cpu
Time: Oct 16, 2026 at 2:40am (UTC)
Duration: 10.21s, Total samples = 10s (97.94%)
Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
     3.50s 35.00% 35.00%      4.00s 40.00%  accelflow/internal/sim.(*Kernel).RunCtx
     1.50s 15.00% 50.00%      1.50s 15.00%  runtime.mallocgc
        1s 10.00% 60.00%         1s 10.00%  accelflow/internal/experiments.RunCells[go.shape.*uint8]
     800ms  8.00% 68.00%      800ms  8.00%  internal/runtime/maps.(*Map).getWithKey
     700ms  7.00% 75.00%      700ms  7.00%  syscall.Syscall6
     500ms  5.00% 80.00%      500ms  5.00%  net/http.(*conn).serve
     500ms  5.00% 85.00%      500ms  5.00%  encoding/json.(*encodeState).marshal
     400ms  4.00% 89.00%      400ms  4.00%  accelflow/internal/config.Default
     300ms  3.00% 92.00%      300ms  3.00%  type:.eq.[2]interface {}
     300ms  3.00% 95.00%      300ms  3.00%  main.main.func1
     200ms  2.00% 97.00%      200ms  2.00%  accelflow/internal/serve.(*Server).handleSubmit
     150ms  1.50% 98.50%      150ms  1.50%  strconv.appendQuotedWith
     100ms  1.00% 99.50%      100ms  1.00%  accelflow/internal/obs.(*Sink).WriteChromeTrace.func2
      50ms  0.50%   100%       50ms  0.50%  accelflow/internal/sim.(*Resource).Do
         0     0%   100%        4s 40.00%  accelflow/internal/workload.(*RunSpec).RunCtx
`

func TestFoldTop(t *testing.T) {
	shares, err := foldTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim": 35.5, "runtime": 23, "experiments": 10, "net": 12, "encoding": 5,
		"other": 4 + 3 + 3 + 1.5, "serve": 2, "obs": 1, "workload": 0,
	}
	var sum float64
	for _, p := range cpuPackages {
		if _, ok := shares[p]; !ok {
			t.Errorf("bucket %s missing", p)
		}
		sum += shares[p]
	}
	for p, w := range want {
		if math.Abs(shares[p]-w) > 1e-9 {
			t.Errorf("share %s = %v, want %v", p, shares[p], w)
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := foldTop("no table here"); err == nil {
		t.Error("text without a pprof table was accepted")
	}
}

func TestParsePprofDuration(t *testing.T) {
	for in, want := range map[string]float64{"0": 0, "10ms": 0.01, "1.20s": 1.2, "2.5mins": 150, "750us": 750e-6, "3hrs": 10800} {
		got, err := parsePprofDuration(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parsePprofDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

// A span's self time is its duration minus its children's.
func TestSpanSummary(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{ID: 1, Name: "job", Start: 0, End: 10 * time.Millisecond},
		{ID: 2, Parent: 1, Name: "serve.submit", Start: 1 * time.Millisecond, End: 3 * time.Millisecond},
		{ID: 3, Parent: 1, Name: "serve.values", Start: 4 * time.Millisecond, End: 8 * time.Millisecond},
		{ID: 4, Name: "job", Start: 20 * time.Millisecond, End: 24 * time.Millisecond},
		{ID: 5, Name: "job", Start: 30 * time.Millisecond, End: -1}, // never closed
	}
	byName := map[string]spanStat{}
	for _, s := range r.summary() {
		byName[s.Name] = s
	}
	job := byName["job"]
	if job.N != 2 || job.TotalMs != 14 || job.SelfMs != 8 || job.MedianMs != 7 {
		t.Errorf("job spans = %+v, want n 2 total 14 self 8 p50 7", job)
	}
	if v := byName["serve.values"]; v.N != 1 || v.SelfMs != 4 {
		t.Errorf("serve.values spans = %+v", v)
	}
	if d := r.durations()["serve.submit"]; len(d) != 1 || d[0] != 2 {
		t.Errorf("serve.submit durations = %v", d)
	}
	var nilRec *recorder
	if id := nilRec.begin("x", 0, "op"); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	nilRec.end(0)
}

// Every block of ten daemon-cold jobs holds three observed jobs
// (faults on every other one), six experiments in turn and one tune,
// and no two jobs share a seed.
func TestColdSequence(t *testing.T) {
	seeds := map[int64]bool{}
	counts := map[string]int{}
	observed := 0
	for i := 0; i < 30; i++ {
		req, kind := coldRequest(fullSize.jobs, 1000, i)
		if seeds[req.Seed] {
			t.Fatalf("job %d reuses seed %d", i, req.Seed)
		}
		seeds[req.Seed] = true
		counts[req.Type]++
		if req.Type == serve.JobObserved {
			if faulted := req.FaultLoss > 0; faulted != (observed%2 == 1) || faulted != (kind == "observed+faults") {
				t.Errorf("observed job %d (%s): faulted %v", observed, kind, faulted)
			}
			observed++
		}
		if req.Type == serve.JobExperiment && !strings.HasSuffix(kind, coldExperiments[(counts[req.Type]-1)%3]) {
			t.Errorf("job %d is %s, want experiments in turn", i, kind)
		}
		if err := req.Validate(); err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
	if counts[serve.JobObserved] != 9 || counts[serve.JobExperiment] != 18 || counts[serve.JobTune] != 3 {
		t.Errorf("30 jobs hold %v", counts)
	}
	hot := map[string]int{}
	for _, pos := range hotPositions {
		req, _ := coldRequest(fullSize.jobs, 1000, pos)
		hot[req.Type]++
	}
	if hot[serve.JobObserved] != 3 || hot[serve.JobExperiment] != 4 || hot[serve.JobTune] != 1 {
		t.Errorf("hot set holds %v", hot)
	}
}
