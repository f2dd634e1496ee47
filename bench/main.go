// Command bench is the repository benchmark. It runs one workload —
// a fixed traffic mix against the simulator or the accelsimd daemon —
// for a fixed time, checks every output it gets against a known-good
// value, and prints each metric by name, unit and sample count. The
// last line of its standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"op_ms_p50": {"value": 41.2, "unit": "ms"}, ...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics: spans taken around every
// layer call, a CPU profile folded by package, and fixed-size probes of
// single layers. BENCHMARK.json at the repository root lists both sets;
// README.md beside this file explains them.
//
// Build and run it from the repository root with run.sh, which also
// builds the accelsimd binary the daemon workloads start:
//
//	bash bench/run.sh -workload sim-serial -seed 1 -seconds 15 -trace 0
//
// Each workload runs in a fresh child process of this program, so no
// workload's heap, goroutines or GOMAXPROCS setting leaks into
// another's numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"syscall"
	"time"

	"accelflow/bench/stats"
)

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 15, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	accelsimd := flag.String("accelsimd", "", "accelsimd binary the daemon workloads start")
	child := flag.Bool("child", false, "run the workload in this process (set by the parent)")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *child {
		c := &runConfig{
			seed:      *seed,
			seconds:   time.Duration(*seconds) * time.Second,
			trace:     *trace == 1,
			accelsimd: *accelsimd,
			size:      fullSize,
		}
		os.Exit(runChild(names[0], c, os.Stdout))
	}
	for _, name := range names {
		args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(*seed, 10),
			"-seconds", strconv.Itoa(*seconds), "-trace", strconv.Itoa(*trace), "-accelsimd", *accelsimd}
		if code := spawnChild(args); code != 0 {
			os.Exit(code)
		}
	}
}

// spawnChild runs this program again with args and waits for it. The
// child inherits stdout and stderr, so its result line is the
// parent's; it is killed if the parent dies first.
func spawnChild(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// runChild runs one workload in this process, prints its report and
// result line to out, and returns the exit code.
func runChild(name string, c *runConfig, out io.Writer) int {
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	c.root = root
	res, err := run(workloadByName(name), c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	if err := res.print(out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported number with the sample count behind it.
type metric struct {
	value float64
	n     int
	// note adds context to the report line (quartiles, the p95).
	note string
}

// result is one finished benchmark run.
type result struct {
	workload          string
	seed              int64
	trace             bool
	attempted, failed int
	defs              []metricDef
	metrics           map[string]metric
	spans             []spanStat
	spanFile          string
	// refMs and steal are the untraced window's reference-loop CPU
	// times and its slices' stolen shares of CPU time.
	refMs, steal []float64
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report, then the JSON result as the
// last line.
func (r *result) print(out io.Writer) error {
	mode := "untraced"
	if r.trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "bench %s seed %d (%s)\n", r.workload, r.seed, mode)
	jr := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range r.defs {
		m := r.metrics[d.name]
		fmt.Fprintf(out, "  %-34s %14.4f %-8s n=%-6d %s\n", d.name, m.value, d.unit, m.n, m.note)
		jr.Metrics[d.name] = jsonMetric{Value: m.value, Unit: d.unit}
	}
	if len(r.spans) > 0 {
		fmt.Fprintf(out, "  spans %-38s %8s %12s %12s %10s\n", "name", "n", "total_ms", "self_ms", "p50_ms")
		for _, s := range r.spans {
			fmt.Fprintf(out, "        %-38s %8d %12.1f %12.1f %10.3f\n", s.Name, s.N, s.TotalMs, s.SelfMs, s.MedianMs)
		}
		fmt.Fprintf(out, "  spans written to %s\n", r.spanFile)
	}
	if len(r.refMs) > 0 {
		ref, steal := stats.Summarize(r.refMs), stats.Summarize(r.steal)
		fmt.Fprintf(out, "  reference loop %.4g ms CPU (n=%d, q1 %.4g q3 %.4g), steal %.2f%% (max %.2f%%): times above are scaled to a %g ms host without steal\n",
			ref.Median, ref.N, ref.Q1, ref.Q3, 100*steal.Median, 100*slices.Max(r.steal), refNominalMs)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(out, "  attempted %d failed %d failed_frac %g\n", r.attempted, r.failed, frac)
	b, err := json.Marshal(jr)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
