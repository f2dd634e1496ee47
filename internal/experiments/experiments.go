// Package experiments contains one runner per table and figure of the
// paper's evaluation (see DESIGN.md §3 for the index). Each runner
// returns a formatted report plus machine-readable series used by the
// tests and EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"accelflow/internal/check"
	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/services"
	"accelflow/internal/workload"
)

// Options scales an experiment run.
type Options struct {
	// Requests is the per-simulation request budget.
	Requests int
	// Seed makes runs reproducible. Every simulation cell derives its
	// own stream from (Seed, cell key) — see sweep.go — so the same
	// Options produce bit-identical Values at any Parallelism.
	Seed int64
	// Quick shrinks workloads for tests and CI.
	Quick bool
	// Parallelism bounds the sweep worker pool; <= 0 means
	// runtime.GOMAXPROCS(0). It never affects results, only wall clock.
	Parallelism int
	// Ctx, when non-nil, cancels a run cooperatively: RunCells stops
	// dispatching new cells, in-flight simulations stop at their next
	// kernel check, and the run reports Ctx's error. A nil Ctx means
	// context.Background() — no cancellation, bit-identical behavior to
	// before the field existed.
	Ctx context.Context
	// OnCell, when non-nil, is invoked once per finished sweep cell
	// (including failed ones). Calls arrive from concurrent worker
	// goroutines, so the callback must be safe for concurrent use and
	// must not block: it is progress plumbing for the serving layer,
	// not a results channel — cell outputs still only travel through
	// RunCells return values.
	OnCell func(CellEvent)
	// Check attaches a fresh runtime invariant checker to every
	// simulation the experiment runs (the accelsim -check flag).
	// Checking is read-only — Values are bit-identical with it on —
	// but any violated invariant fails the cell with a structured
	// error instead of reporting numbers from broken physics.
	Check bool
}

// newCheck returns a fresh checker when checking is enabled, else nil.
// Each simulation cell needs its own instance: cells run concurrently
// and a Checker covers exactly one run.
func (o Options) newCheck() *check.Checker {
	if !o.Check {
		return nil
	}
	return check.New()
}

// CellEvent reports one finished sweep cell to Options.OnCell.
type CellEvent struct {
	// Key is the cell's sweep key, Index its submission position, and
	// Total the sweep's cell count.
	Key          string
	Index, Total int
	// Err is the cell's error (nil on success).
	Err error
}

// ctx resolves Options.Ctx, defaulting to the background context.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) reqs() int {
	n := o.Requests
	if n <= 0 {
		n = 2500
	}
	if o.Quick && n > 400 {
		return 400
	}
	return n
}

// Result is one experiment's output. Values — named scalar outcomes
// such as "AccelFlow/CPost/p99us" — are the source of truth: the
// golden tests, the paper-shape checks, and EXPERIMENTS.md all read
// them. The human-readable report is a list of Lines rendered from
// those values (plus layout-only context); Text joins them.
type Result struct {
	Name string
	// Values holds named scalar outcomes, e.g. "AccelFlow/CPost/p99us".
	Values map[string]float64
	// Lines is the rendered report, one entry per line (no newlines).
	Lines []string
}

func newResult(name string) *Result {
	return &Result{Name: name, Values: map[string]float64{}}
}

// Set records a named scalar outcome and returns it, so a report line
// can record and render the same number in one expression:
//
//	res.Linef("p99 -%5.1f%%", 100*res.Set("reduction_p99", rp))
func (r *Result) Set(key string, v float64) float64 {
	r.Values[key] = v
	return v
}

// Get reads a recorded value (zero when absent).
func (r *Result) Get(key string) float64 { return r.Values[key] }

// Linef appends one rendered line to the report. The format string
// must not contain newlines; use one call per line (an empty format
// makes a blank separator line).
func (r *Result) Linef(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// Text renders the report.
func (r *Result) Text() string {
	if len(r.Lines) == 0 {
		return ""
	}
	return strings.Join(r.Lines, "\n") + "\n"
}

// Runner executes one experiment.
type Runner func(Options) (*Result, error)

// Registry maps experiment IDs to runners. IDs match DESIGN.md §3.
var Registry = map[string]Runner{
	"fig1":       Fig1Breakdown,
	"fig3":       Fig3OrchOverhead,
	"tab1":       Tab1Connectivity,
	"q2":         Q2BranchStats,
	"fig5":       Fig5DataSizes,
	"tab2":       Tab2Traces,
	"tab3":       Tab3Parameters,
	"tab4":       Tab4Paths,
	"fig11":      Fig11Latency,
	"fig12":      Fig12Loads,
	"fig13":      Fig13Ablation,
	"fig14":      Fig14Throughput,
	"fig15":      Fig15Coarse,
	"fig16":      Fig16Serverless,
	"fig17":      Fig17Components,
	"glue":       GlueInstructions,
	"util":       AccelUtilization,
	"energy":     EnergyReport,
	"events":     HighOverheadEvents,
	"fig18":      Fig18Chiplets,
	"sens2":      Sens2InterChiplet,
	"fig19":      Fig19PECount,
	"fig20":      Fig20Generations,
	"sens5":      Sens5Speedups,
	"area":       AreaAccounting,
	"resilience": Resilience,
	"slosurge":   SLOSurge,
	"overprov":   Overprovision,
	"recovery":   Recovery,
}

// IDs returns the registered experiment names, sorted.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// architectures returns the five evaluated servers (Fig. 11's order).
func architectures() []engine.Policy {
	return []engine.Policy{
		engine.NonAcc(),
		engine.CPUCentric(),
		engine.RELIEF(),
		engine.Cohort(engine.DefaultCohortPairs()),
		engine.AccelFlow(),
	}
}

// runOne simulates one service under one policy with the given arrival
// process. Options carries the run context (cooperative cancellation,
// see RunSpec.RunCtx) and whether to attach an invariant checker.
func runOne(o Options, cfg *config.Config, pol engine.Policy, svc *services.Service, arr workload.Arrivals, n int, seed int64) (*workload.RunResult, error) {
	return o.run(&workload.RunSpec{
		Config:  cfg,
		Policy:  pol,
		Sources: workload.SingleService(svc, arr, n),
		Seed:    seed,
	})
}

// run is the one place experiment runs attach a checker and context:
// it gives spec a fresh invariant checker (when checking is on) and
// runs it under the options' context.
func (o Options) run(spec *workload.RunSpec) (*workload.RunResult, error) {
	spec.Check = o.newCheck()
	return spec.RunCtx(o.ctx())
}

// unloadedMean measures a service's mean on-server latency (excluding
// remote-peer waits) with one request in flight at a time.
func unloadedMean(o Options, cfg *config.Config, pol engine.Policy, svc *services.Service, seed int64) (float64, error) {
	res, err := runOne(o, cfg, pol, svc, workload.Poisson{RPS: 50}, 60, seed)
	if err != nil {
		return 0, err
	}
	return res.Net.Mean().Micros(), nil
}

// svcSubset trims the service list under Quick mode to keep tests fast.
func svcSubset(o Options, svcs []*services.Service) []*services.Service {
	if !o.Quick || len(svcs) <= 3 {
		return svcs
	}
	return svcs[:3]
}
