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
// Every run is a serve.JobRequest, the request accelsimd takes over
// HTTP: the flags map onto one, serve's JobRequest.Validate checks it,
// and serve.Run executes it (-exp fans out through
// experiments.RunMany with the request's Options). A daemon job with
// the same fields therefore gives byte-identical values and artifacts.
// Only flag parsing, -list, stderr summaries, output files and
// -tunestate/-tuneresume are the CLI's own.
//
// The -tune mode hill-climbs a bounded design space (chiplet plan, PE
// provisioning, policy, queue depths, TCP timeout — set via the
// -tune* space flags) toward the configuration minimizing the given
// objective (p99, energy, or costperf), printing one NDJSON line per
// generation on stdout. -tunestate FILE snapshots the search after
// every generation (atomically); -tuneresume continues from that
// snapshot with a byte-identical trajectory to an uninterrupted run.
package main

import (
	"context"
	"encoding/json"
	"errors"
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
	"accelflow/internal/serve"
	"accelflow/internal/tune"
)

// cliArgs collects every parsed flag so validation is a pure,
// table-testable function instead of inline fatalfs.
type cliArgs struct {
	list, timing          bool
	tracePath, reportPath string

	exp         string
	n           int
	seed        int64
	quick       bool
	parallel    int
	faultRate   float64
	faultWindow time.Duration
	faultLoss   float64
	check       bool

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

// parseArgs parses the command line; a bad flag exits 2 with usage.
func parseArgs(args []string) cliArgs {
	var a cliArgs
	fs := flag.NewFlagSet("accelsim", flag.ExitOnError)
	fs.BoolVar(&a.list, "list", false, "list experiment IDs")
	fs.BoolVar(&a.timing, "time", true, "report per-experiment and total wall clock on stderr")
	fs.StringVar(&a.tracePath, "trace", "", "run an observed SocialNetwork mix and write a Chrome trace-event JSON to this file")
	fs.StringVar(&a.reportPath, "report", "", "run an observed SocialNetwork mix and write a structured JSON report to this file")
	fs.StringVar(&a.exp, "exp", "", "experiment ID (see -list), or 'all'")
	fs.IntVar(&a.n, "n", 2500, "request budget per simulation")
	fs.Int64Var(&a.seed, "seed", 1, "RNG seed")
	fs.BoolVar(&a.quick, "quick", false, "shrink workloads for a fast pass")
	fs.IntVar(&a.parallel, "parallel", 0, "sweep worker count (0 = GOMAXPROCS); results are identical at any value")
	fs.Float64Var(&a.faultRate, "faults", 0, "fault-window arrival rate in windows/s for the observed run (0 = off)")
	fs.DurationVar(&a.faultWindow, "faultwindow", 0, "mean fault-window duration for -faults (0 = 200us)")
	fs.Float64Var(&a.faultLoss, "faultloss", 0, "remote-response loss rate override in [0,1] for the observed run")
	fs.BoolVar(&a.check, "check", false, "run with runtime invariant checking (same results; violations fail the run)")
	fs.StringVar(&a.ctlTarget, "ctl", "", "attach the autoscaler to the observed run, scaling this pool: pe or cores")
	fs.Float64Var(&a.ctlUp, "ctlup", 0.75, "scale up when windowed utilization exceeds this (requires -ctl)")
	fs.Float64Var(&a.ctlDown, "ctldown", 0.25, "scale down when windowed utilization falls below this (requires -ctl)")
	fs.Float64Var(&a.ctlSLO, "ctlslo", 0, "P99 SLO target in microseconds the autoscaler also reacts to (0 = utilization only)")
	fs.IntVar(&a.ctlMax, "ctlmax", 8, "autoscaler ceiling: servers it may add over the base pool")
	fs.IntVar(&a.ctlShedQ, "ctlshedq", 0, "shed observed-run arrivals when this many requests are outstanding (0 = off)")
	fs.Float64Var(&a.ctlShedP, "ctlshedp", 0, "shed observed-run arrivals with this probability in [0,1] (0 = off)")
	fs.IntVar(&a.ctlRetry, "ctlretry", 0, "the run's retry budget for timed-out observed-run requests (0 = off)")
	fs.StringVar(&a.tune, "tune", "", "run a design-space search for this objective: p99, energy, or costperf")
	fs.IntVar(&a.tuneGens, "tunegens", 0, "max search generations (0 = default)")
	fs.IntVar(&a.tunePatience, "tunepatience", 0, "stop after this many stagnant generations (0 = default)")
	fs.Float64Var(&a.tuneSLO, "tuneslo", 0, "p99 SLO target in microseconds for the p99 objective (0 = default)")
	fs.Float64Var(&a.tuneLoad, "tuneload", 0, "workload load scale for evaluations (0 = 1.0)")
	fs.StringVar(&a.tuneState, "tunestate", "", "snapshot the search state to this file after every generation (atomic rename)")
	fs.BoolVar(&a.tuneResume, "tuneresume", false, "resume the search from -tunestate instead of starting fresh")
	fs.StringVar(&a.tuneOut, "tuneout", "", "write the final search result JSON to this file")
	fs.StringVar(&a.tuneChiplets, "tunechiplets", "", "comma-separated chiplet plans to search (first = start)")
	fs.StringVar(&a.tunePEs, "tunepes", "", "comma-separated PEs-per-accelerator levels to search")
	fs.StringVar(&a.tunePolicies, "tunepolicies", "", "comma-separated policies to search (accelflow,relief,cohort,cpucentric,nonacc)")
	fs.StringVar(&a.tuneQueues, "tunequeues", "", "comma-separated queue depths to search")
	fs.StringVar(&a.tuneTimeouts, "tunetimeouts", "", "comma-separated TCP timeouts (us) to search")
	_ = fs.Parse(args) // ExitOnError: a bad flag never returns
	return a
}

// validate rejects bad flags up front: a bad value should fail fast
// (exit 2) with a message naming the flag, not surface as a late panic
// or a silent zero run. Only the rules about flags themselves live
// here; every rule about the run is JobRequest.Validate's, the one the
// daemon applies. It returns the validated request for the mode: the
// search under -tune, else the observed run, whose flags are checked
// even when -trace/-report is unset.
func (a cliArgs) validate() (serve.JobRequest, error) {
	switch {
	case a.n <= 0:
		return serve.JobRequest{}, fmt.Errorf("-n must be positive, got %d", a.n)
	case a.tune == "" && (a.tuneResume || a.tuneState != "" || a.tuneOut != ""):
		// Tune-only flags require the mode, so a typo like -tuneresume
		// without -tune cannot silently run the wrong mode.
		return serve.JobRequest{}, fmt.Errorf("-tunestate/-tuneresume/-tuneout require -tune <objective>")
	case a.tune != "" && a.exp != "":
		return serve.JobRequest{}, fmt.Errorf("-tune and -exp are separate modes; run them separately")
	case a.tuneResume && a.tuneState == "":
		return serve.JobRequest{}, fmt.Errorf("-tuneresume needs -tunestate FILE to resume from")
	}
	typ := serve.JobObserved
	if a.tune != "" {
		typ = serve.JobTune
	}
	req, err := a.request(typ)
	if err != nil {
		return req, err
	}
	if err := req.Validate(); err != nil {
		return req, flagError(err)
	}
	if a.exp != "" && a.exp != "all" {
		if err := a.experimentRequest().Validate(); err != nil {
			return req, fmt.Errorf("%w\ntry -list", flagError(err))
		}
	}
	return req, nil
}

// request maps the flags onto an observed or tune job request, the
// request accelsimd decodes from a POST /v1/jobs body. It carries both
// modes' flags, so Validate rejects a flag of the other mode just as it
// would in a daemon request.
func (a cliArgs) request(typ string) (serve.JobRequest, error) {
	r := a.experimentRequest() // for -n, -seed, -quick and -parallel
	r.Type, r.Experiment = typ, ""
	r.FaultRate, r.FaultLoss = a.faultRate, a.faultLoss
	r.FaultWindowUs = float64(a.faultWindow) / float64(time.Microsecond)
	r.Control = a.controlSpec()
	r.Objective, r.Generations, r.Patience = a.tune, a.tuneGens, a.tunePatience
	r.SLOUs, r.LoadScale = a.tuneSLO, a.tuneLoad
	var err error
	r.Space, err = a.tuneSpace()
	return r, err
}

// experimentRequest maps the flags onto the -exp job request.
func (a cliArgs) experimentRequest() serve.JobRequest {
	return serve.JobRequest{Type: serve.JobExperiment, Experiment: a.exp,
		Requests: a.n, Seed: a.seed, Quick: a.quick, Parallelism: a.parallel}
}

// flagNames maps job-request fields (JSON names) onto the flags that
// set them.
var flagNames = map[string]string{
	"experiment":    "-exp",
	"requests":      "-n",
	"parallelism":   "-parallel",
	"faultRate":     "-faults",
	"faultWindowUs": "-faultwindow",
	"faultLoss":     "-faultloss",
	"control":       "-ctl*",
	"objective":     "-tune",
	"generations":   "-tunegens",
	"patience":      "-tunepatience",
	"sloUs":         "-tuneslo",
	"loadScale":     "-tuneload",
	"space":         "-tunechiplets/-tunepes/-tunepolicies/-tunequeues/-tunetimeouts",
}

// flagError prefixes a request-validation error with the flags that
// set the fields it is about.
func flagError(err error) error {
	var fe interface{ Fields() []string }
	if !errors.As(err, &fe) || len(fe.Fields()) == 0 {
		return err
	}
	flags := make([]string, len(fe.Fields()))
	for i, f := range fe.Fields() {
		flags[i] = flagNames[f]
	}
	return fmt.Errorf("%s: %w", strings.Join(flags, " and "), err)
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

// tuneSpace maps the -tune* list flags onto a search space; leaving
// them all empty gives nil, which selects tune.DefaultSpace (three
// dimensions around the paper's base design).
func (a cliArgs) tuneSpace() (*tune.SpaceSpec, error) {
	if a.tuneChiplets == "" && a.tunePEs == "" && a.tunePolicies == "" &&
		a.tuneQueues == "" && a.tuneTimeouts == "" {
		return nil, nil
	}
	space := &tune.SpaceSpec{Policies: splitList(a.tunePolicies)}
	var errs [4]error
	space.Chiplets, errs[0] = parseList("-tunechiplets", a.tuneChiplets, strconv.Atoi)
	space.PEs, errs[1] = parseList("-tunepes", a.tunePEs, strconv.Atoi)
	space.QueueDepths, errs[2] = parseList("-tunequeues", a.tuneQueues, strconv.Atoi)
	space.TCPTimeoutUs, errs[3] = parseList("-tunetimeouts", a.tuneTimeouts, parseFloat)
	return space, errors.Join(errs[:]...)
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

// parseList parses a comma-separated flag value element by element;
// an error names the flag.
func parseList[T int | float64](flagName, s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, p := range splitList(s) {
		v, err := parse(p)
		if err != nil {
			return nil, fmt.Errorf("%s: bad value %q (want comma-separated numbers)", flagName, p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func main() {
	a := parseArgs(os.Args[1:])
	req, err := a.validate()
	if err != nil {
		fatalf("%v", err)
	}

	if a.tune != "" {
		if err := runTune(a, req); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if a.tracePath != "" || a.reportPath != "" {
		if err := observedRun(a, req); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if a.exp == "" {
			return
		}
	}

	if a.list || a.exp == "" {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %s\n", id)
		}
		if a.exp == "" {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}

	ids := []string{a.exp}
	if a.exp == "all" {
		ids = experiments.IDs()
	}
	start := time.Now()
	outcomes := experiments.RunMany(ids, a.experimentRequest().Options(serve.Env{Check: a.check}))
	total := time.Since(start)
	failed := 0
	for _, out := range outcomes {
		if out.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", out.ID, out.Err)
			failed++
			continue
		}
		fmt.Printf("=== %s ===\n%s\n", out.ID, strings.TrimRight(out.Res.Text(), "\n"))
		fmt.Println()
		if a.timing {
			fmt.Fprintf(os.Stderr, "[%s: %v]\n", out.ID, out.Elapsed.Round(time.Millisecond))
		}
	}
	if a.timing {
		fmt.Fprintf(os.Stderr, "[total: %v wall clock, %d experiments, parallelism %d]\n",
			total.Round(time.Millisecond), len(ids), effectiveParallelism(a.parallel))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runTune drives the closed-loop search through serve.Run: one NDJSON
// line per generation on stdout ({"event":"generation",...}), a final
// {"event":"result",...} line, optional atomic state snapshots for
// kill/resume, and an optional result-JSON file.
func runTune(a cliArgs, req serve.JobRequest) error {
	env := serve.Env{Check: a.check}
	if a.tuneResume {
		data, err := os.ReadFile(a.tuneState)
		if err != nil {
			return fmt.Errorf("-tuneresume: %w", err)
		}
		env.TuneState = data
		fmt.Fprintf(os.Stderr, "[tune: resuming from %s]\n", a.tuneState)
	}

	enc := json.NewEncoder(os.Stdout)
	var hookErr error
	env.OnGeneration = func(pr tune.Progress, state []byte) {
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
	}
	out, err := serve.Run(context.Background(), req, env)
	if err != nil {
		return err
	}
	if hookErr != nil {
		return hookErr
	}
	res := out.Tune
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
	fmt.Fprintf(os.Stderr, "[tune: %s best %s score=%.3f after %d generations, %d evals (%d cached), converged=%t]\n",
		res.Objective, res.BestKey, res.BestScore,
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

// observedRun runs one AccelFlow SocialNetwork mix with the span and
// utilization observer attached, through serve.Run like an accelsimd
// observed job, and writes the requested exports — byte-identical to
// the daemon's artifacts for the same request. A nonzero -faults (or
// -faultloss) attaches the deterministic fault injector, so Perfetto
// traces show the fault windows as root spans.
func observedRun(a cliArgs, req serve.JobRequest) error {
	out, err := serve.Run(context.Background(), req, serve.Env{Check: a.check})
	if err != nil {
		return err
	}
	res, sink := out.Run, out.Sink
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
	if a.tracePath != "" {
		if err := writeFile(a.tracePath, sink.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace (%d spans) to %s\n", sink.SpanCount(), a.tracePath)
	}
	if a.reportPath != "" {
		if err := writeFile(a.reportPath, sink.WriteReport); err != nil {
			return err
		}
		fmt.Printf("wrote observability report to %s\n", a.reportPath)
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
