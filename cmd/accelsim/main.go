// Command accelsim regenerates the AccelFlow paper's tables and
// figures from the simulator.
//
// Usage:
//
//	accelsim -exp fig11            # one experiment
//	accelsim -exp all              # everything, fanned out over cores
//	accelsim -exp all -parallel 1  # serial baseline (same results)
//	accelsim -list                 # show experiment IDs
//	accelsim -exp fig14 -n 800     # smaller request budget
//	accelsim -exp fig11 -quick     # CI-sized run
//	accelsim -trace t.json         # observed SocialNetwork run, Chrome trace
//	accelsim -report r.json        # same run, structured JSON report
//	accelsim -tune p99 -quick      # closed-loop design-space search
//
// Results are bit-identical at any -parallel value: every simulation
// cell draws from an RNG stream derived from (seed, cell key), so the
// worker count only changes wall clock, never Values.
//
// The -tune mode searches a bounded design space (chiplet plan, PE
// provisioning, policy, queue depths, TCP timeout — set via the
// -tune* space flags) for the configuration minimizing the given
// objective (p99, energy, or costperf), printing one NDJSON line per
// generation on stdout. -tunestate FILE snapshots the search after
// every generation (atomically); -tuneresume continues from that
// snapshot with a byte-identical trajectory to an uninterrupted run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"accelflow/internal/control"
	"accelflow/internal/experiments"
	"accelflow/internal/sim"
	"accelflow/internal/tune"
	"accelflow/internal/workload"
)

// cliArgs collects every parsed flag so validation is a pure,
// table-testable function instead of inline fatalfs.
type cliArgs struct {
	exp       string
	n         int
	seed      int64
	quick     bool
	parallel  int
	faultRate float64
	faultLoss float64
	check     bool

	// Dynamic-control knobs for the observed run (-trace/-report).
	// ctlTarget enables the autoscaler; the shed/retry knobs enable
	// independently, so -ctlshedq works without an autoscaler.
	ctlTarget string
	ctlUp     float64
	ctlDown   float64
	ctlSLO    float64
	ctlMax    int
	ctlShedQ  int
	ctlShedP  float64
	ctlRetry  int

	tune         string // objective; "" disables the mode
	tuneStrategy string
	tuneGens     int
	tunePatience int
	tuneSLO      float64
	tuneLoad     float64
	tuneState    string
	tuneResume   bool
	tuneOut      string
	tuneChiplets string
	tunePEs      string
	tunePolicies string
	tuneQueues   string
	tuneTimeouts string
}

// validate rejects bad flag combinations up front: a bad value should
// fail fast (exit 2) with a clear message, not surface as a late panic
// or a silent zero run. Returns the first violation.
func (a cliArgs) validate() error {
	if err := (workload.ObservedParams{FaultRate: a.faultRate, FaultLoss: a.faultLoss}).Validate(); err != nil {
		return fmt.Errorf("-faults/-faultloss: %w", err)
	}
	if a.n <= 0 {
		return fmt.Errorf("-n must be positive, got %d", a.n)
	}
	if a.parallel < 0 {
		return fmt.Errorf("-parallel must be non-negative, got %d", a.parallel)
	}
	if a.exp != "" && a.exp != "all" {
		if _, ok := experiments.Registry[a.exp]; !ok {
			return fmt.Errorf("unknown experiment %s\ntry -list", a.exp)
		}
	}
	if spec := a.controlSpec(); spec != nil {
		if a.tune != "" {
			return fmt.Errorf("-ctl* flags apply to the observed run (-trace/-report), not -tune")
		}
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("-ctl*: %w", err)
		}
		if as := spec.Autoscale; as != nil && as.Target == control.TargetReplicas {
			return fmt.Errorf("-ctl %q needs a fleet; the observed run scales %q or %q",
				control.TargetReplicas, control.TargetPE, control.TargetCores)
		}
	}
	if a.tune == "" {
		// Tune-only flags require the mode, so a typo like -tuneresume
		// without -tune cannot silently run the wrong mode.
		if a.tuneResume || a.tuneState != "" || a.tuneOut != "" {
			return fmt.Errorf("-tunestate/-tuneresume/-tuneout require -tune <objective>")
		}
		return nil
	}
	if a.exp != "" {
		return fmt.Errorf("-tune and -exp are separate modes; run them separately")
	}
	if a.tuneResume && a.tuneState == "" {
		return fmt.Errorf("-tuneresume needs -tunestate FILE to resume from")
	}
	if a.tuneGens < 0 || a.tunePatience < 0 {
		return fmt.Errorf("-tunegens and -tunepatience must be non-negative, got %d/%d", a.tuneGens, a.tunePatience)
	}
	if a.tuneSLO < 0 {
		return fmt.Errorf("-tuneslo must be non-negative, got %v", a.tuneSLO)
	}
	if a.tuneLoad < 0 {
		return fmt.Errorf("-tuneload must be non-negative, got %v", a.tuneLoad)
	}
	p, err := a.tuneParams()
	if err != nil {
		return err
	}
	return p.Validate()
}

// controlSpec maps the -ctl* flags onto a control spec, or nil when
// every control knob is at its neutral value (no autoscale target, no
// shedding, no retry budget) — a nil spec keeps the observed run on
// the exact pre-control code path, byte-identical artifacts included.
func (a cliArgs) controlSpec() *control.Spec {
	if a.ctlTarget == "" && a.ctlShedQ == 0 && a.ctlShedP == 0 && a.ctlRetry == 0 {
		return nil
	}
	spec := &control.Spec{}
	if a.ctlTarget != "" {
		spec.Autoscale = &control.AutoscaleSpec{
			Target:   a.ctlTarget,
			UpUtil:   a.ctlUp,
			DownUtil: a.ctlDown,
			SLOUs:    a.ctlSLO,
			MaxAdd:   a.ctlMax,
		}
	}
	if a.ctlShedQ != 0 || a.ctlShedP != 0 {
		spec.Shed = &control.ShedSpec{Queue: a.ctlShedQ, Prob: a.ctlShedP}
	}
	if a.ctlRetry != 0 {
		spec.Retry = &control.RetrySpec{Budget: a.ctlRetry}
	}
	return spec
}

// tuneParams maps the flags onto search parameters. The space comes
// from the -tune* list flags; leaving them all empty selects
// tune.DefaultSpace (three dimensions around the paper's base design).
func (a cliArgs) tuneParams() (tune.Params, error) {
	space := tune.DefaultSpace()
	if a.tuneChiplets != "" || a.tunePEs != "" || a.tunePolicies != "" ||
		a.tuneQueues != "" || a.tuneTimeouts != "" {
		space = tune.SpaceSpec{Policies: splitList(a.tunePolicies)}
		var err error
		if space.Chiplets, err = parseInts("-tunechiplets", a.tuneChiplets); err != nil {
			return tune.Params{}, err
		}
		if space.PEs, err = parseInts("-tunepes", a.tunePEs); err != nil {
			return tune.Params{}, err
		}
		if space.QueueDepths, err = parseInts("-tunequeues", a.tuneQueues); err != nil {
			return tune.Params{}, err
		}
		if space.TCPTimeoutUs, err = parseFloats("-tunetimeouts", a.tuneTimeouts); err != nil {
			return tune.Params{}, err
		}
	}
	return tune.Params{
		Strategy:       a.tuneStrategy,
		Objective:      a.tune,
		Space:          space,
		Seed:           a.seed,
		Requests:       a.n,
		LoadScale:      a.tuneLoad,
		SLOUs:          a.tuneSLO,
		MaxGenerations: a.tuneGens,
		Patience:       a.tunePatience,
		Quick:          a.quick,
		Parallelism:    a.parallel,
		Check:          a.check,
	}, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseInts(flagName, s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("%s: bad value %q (want comma-separated integers)", flagName, p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(flagName, s string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad value %q (want comma-separated numbers)", flagName, p)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	var a cliArgs
	var (
		list       = flag.Bool("list", false, "list experiment IDs")
		timing     = flag.Bool("time", true, "report per-experiment and total wall clock on stderr")
		tracePath  = flag.String("trace", "", "run an observed SocialNetwork mix and write a Chrome trace-event JSON to this file")
		reportPath = flag.String("report", "", "run an observed SocialNetwork mix and write a structured JSON report to this file")
		faultWin   = flag.Duration("faultwindow", 200*time.Microsecond, "mean fault-window duration for -faults")
	)
	flag.StringVar(&a.exp, "exp", "", "experiment ID (see -list), or 'all'")
	flag.IntVar(&a.n, "n", 2500, "request budget per simulation")
	flag.Int64Var(&a.seed, "seed", 1, "RNG seed")
	flag.BoolVar(&a.quick, "quick", false, "shrink workloads for a fast pass")
	flag.IntVar(&a.parallel, "parallel", 0, "sweep worker count (0 = GOMAXPROCS); results are identical at any value")
	flag.Float64Var(&a.faultRate, "faults", 0, "fault-window arrival rate in windows/s for the observed run (0 = off)")
	flag.Float64Var(&a.faultLoss, "faultloss", 0, "remote-response loss rate override in [0,1] for the observed run")
	flag.BoolVar(&a.check, "check", false, "run with runtime invariant checking (same results; violations fail the run)")
	flag.StringVar(&a.ctlTarget, "ctl", "", "attach the autoscaler to the observed run, scaling this pool: pe or cores")
	flag.Float64Var(&a.ctlUp, "ctlup", 0.75, "scale up when windowed utilization exceeds this (requires -ctl)")
	flag.Float64Var(&a.ctlDown, "ctldown", 0.25, "scale down when windowed utilization falls below this (requires -ctl)")
	flag.Float64Var(&a.ctlSLO, "ctlslo", 0, "P99 SLO target in microseconds the autoscaler also reacts to (0 = utilization only)")
	flag.IntVar(&a.ctlMax, "ctlmax", 8, "autoscaler ceiling: servers it may add over the base pool")
	flag.IntVar(&a.ctlShedQ, "ctlshedq", 0, "shed observed-run arrivals when this many requests are outstanding (0 = off)")
	flag.Float64Var(&a.ctlShedP, "ctlshedp", 0, "shed observed-run arrivals with this probability in [0,1] (0 = off)")
	flag.IntVar(&a.ctlRetry, "ctlretry", 0, "per-tenant retry budget for timed-out observed-run requests (0 = off)")
	flag.StringVar(&a.tune, "tune", "", "run a design-space search for this objective: p99, energy, or costperf")
	flag.StringVar(&a.tuneStrategy, "tunestrategy", "", "search strategy: hill (default) or anneal")
	flag.IntVar(&a.tuneGens, "tunegens", 0, "max search generations (0 = default)")
	flag.IntVar(&a.tunePatience, "tunepatience", 0, "stop after this many stagnant generations (0 = default)")
	flag.Float64Var(&a.tuneSLO, "tuneslo", 0, "p99 SLO target in microseconds for the p99 objective (0 = default)")
	flag.Float64Var(&a.tuneLoad, "tuneload", 0, "workload load scale for evaluations (0 = 1.0)")
	flag.StringVar(&a.tuneState, "tunestate", "", "snapshot the search state to this file after every generation (atomic rename)")
	flag.BoolVar(&a.tuneResume, "tuneresume", false, "resume the search from -tunestate instead of starting fresh")
	flag.StringVar(&a.tuneOut, "tuneout", "", "write the final search result JSON to this file")
	flag.StringVar(&a.tuneChiplets, "tunechiplets", "", "comma-separated chiplet plans to search (first = start)")
	flag.StringVar(&a.tunePEs, "tunepes", "", "comma-separated PEs-per-accelerator levels to search")
	flag.StringVar(&a.tunePolicies, "tunepolicies", "", "comma-separated policies to search (accelflow,relief,cohort,cpucentric,nonacc)")
	flag.StringVar(&a.tuneQueues, "tunequeues", "", "comma-separated queue depths to search")
	flag.StringVar(&a.tuneTimeouts, "tunetimeouts", "", "comma-separated TCP timeouts (us) to search")
	flag.Parse()

	if err := a.validate(); err != nil {
		fatalf("%v", err)
	}

	if a.tune != "" {
		if err := runTune(a); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *tracePath != "" || *reportPath != "" {
		if err := observedRun(*tracePath, *reportPath, a, *faultWin); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if a.exp == "" {
			return
		}
	}

	if *list || a.exp == "" {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %s\n", id)
		}
		if a.exp == "" {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}

	opts := experiments.Options{Requests: a.n, Seed: a.seed, Quick: a.quick, Parallelism: a.parallel, Check: a.check}
	ids := []string{a.exp}
	if a.exp == "all" {
		ids = experiments.IDs()
	}
	start := time.Now()
	outcomes := experiments.RunMany(ids, opts)
	total := time.Since(start)
	failed := 0
	for _, out := range outcomes {
		if out.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", out.ID, out.Err)
			if strings.HasPrefix(out.Err.Error(), "unknown experiment") {
				fmt.Fprintln(os.Stderr, "try -list")
				os.Exit(2)
			}
			failed++
			continue
		}
		fmt.Printf("=== %s ===\n%s\n", out.ID, strings.TrimRight(out.Res.Text(), "\n"))
		fmt.Println()
		if *timing {
			fmt.Fprintf(os.Stderr, "[%s: %v]\n", out.ID, out.Elapsed.Round(time.Millisecond))
		}
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "[total: %v wall clock, %d experiments, parallelism %d]\n",
			total.Round(time.Millisecond), len(ids), effectiveParallelism(a.parallel))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runTune drives the closed-loop search: one NDJSON line per
// generation on stdout ({"event":"generation",...}), a final
// {"event":"result",...} line, optional atomic state snapshots for
// kill/resume, and an optional result-JSON file.
func runTune(a cliArgs) error {
	p, err := a.tuneParams()
	if err != nil {
		return err
	}
	var st *tune.SearchState
	if a.tuneResume {
		data, err := os.ReadFile(a.tuneState)
		if err != nil {
			return fmt.Errorf("-tuneresume: %w", err)
		}
		if st, err = tune.LoadState(data, p); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[tune: resuming from %s at generation %d]\n", a.tuneState, st.Gen)
	}

	enc := json.NewEncoder(os.Stdout)
	var hookErr error
	h := tune.Hooks{
		OnGeneration: func(pr tune.Progress, state []byte) {
			line := struct {
				Event string `json:"event"`
				tune.Progress
			}{"generation", pr}
			if err := enc.Encode(line); err != nil && hookErr == nil {
				hookErr = err
			}
			if a.tuneState != "" {
				if err := writeFileAtomic(a.tuneState, state); err != nil && hookErr == nil {
					hookErr = err
				}
			}
		},
	}
	res, err := tune.Run(context.Background(), p, st, h)
	if err != nil {
		return err
	}
	if hookErr != nil {
		return hookErr
	}
	final := struct {
		Event string `json:"event"`
		*tune.Result
	}{"result", res}
	if err := enc.Encode(final); err != nil {
		return err
	}
	if a.tuneOut != "" {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := writeFileAtomic(a.tuneOut, append(out, '\n')); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "[tune: %s/%s best %s score=%.3f after %d generations, %d evals (%d cached), converged=%t]\n",
		res.Strategy, res.Objective, res.BestKey, res.BestScore,
		res.Generations, res.Evals, res.CacheHits, res.Converged)
	return nil
}

// writeFileAtomic writes via a temp file + rename so a kill mid-write
// never leaves a torn snapshot — the resume contract depends on it.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func effectiveParallelism(p int) int {
	if p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// observedRun drives one AccelFlow SocialNetwork mix with the span and
// utilization observer attached and writes the requested exports.
// A nonzero faultRate (or faultLoss) attaches the deterministic fault
// injector, so Perfetto traces show the fault windows as root spans.
// The spec comes from workload.BuildObserved — the same builder the
// accelsimd daemon uses — so a job submitted over HTTP with the same
// parameters yields byte-identical artifacts.
func observedRun(tracePath, reportPath string, a cliArgs, faultWin time.Duration) error {
	spec, sink, err := workload.BuildObserved(workload.ObservedParams{
		Seed:        a.seed,
		Requests:    a.n,
		Quick:       a.quick,
		FaultRate:   a.faultRate,
		FaultWindow: sim.FromNanos(float64(faultWin.Nanoseconds())),
		FaultLoss:   a.faultLoss,
		Control:     a.controlSpec(),
		Check:       a.check,
	})
	if err != nil {
		return err
	}
	res, err := spec.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[observed run: %d requests, %d spans, %v simulated]\n",
		res.Completed, sink.SpanCount(), res.Elapsed)
	if inj := res.Engine.Faults; inj != nil {
		fmt.Fprintf(os.Stderr, "[faults: %d windows applied, %d timeouts, %d fallbacks]\n",
			inj.Stats.Windows, res.TimedOut, res.FellBack)
	}
	if res.Control != nil {
		fmt.Fprintf(os.Stderr, "[control: %d ticks, +%d/-%d scale actions, %d shed, %d retries]\n",
			res.Control.Ticks, res.Control.ScaleUps, res.Control.ScaleDowns, res.Shed, res.Retries)
	}
	if tracePath != "" {
		if err := writeFile(tracePath, sink.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace (%d spans) to %s\n", sink.SpanCount(), tracePath)
	}
	if reportPath != "" {
		if err := writeFile(reportPath, sink.WriteReport); err != nil {
			return err
		}
		fmt.Printf("wrote observability report to %s\n", reportPath)
	}
	return nil
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
