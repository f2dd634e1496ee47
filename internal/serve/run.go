package serve

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"

	"accelflow/internal/experiments"
	"accelflow/internal/obs"
	"accelflow/internal/sim"
	"accelflow/internal/tune"
	"accelflow/internal/workload"
)

// Env carries what differs between Run's callers: accelsimd sets the
// progress hooks, accelsim the tune snapshot callback and resume state,
// both the -check flag. Nothing in Env changes a run's values, lines or
// artifact bytes.
type Env struct {
	// Check attaches the runtime invariant checker to every simulation.
	Check bool
	// OnCell receives every finished experiment cell and every tune
	// evaluation the search runs, from concurrent goroutines (a tune
	// search serves revisits from a memo private to the run, and they
	// send no event); OnGeneration each finished tune generation with
	// its serialized state, which TuneState (nil: start fresh) resumes
	// from.
	OnCell       func(experiments.CellEvent)
	OnGeneration func(pr tune.Progress, state []byte)
	TuneState    []byte
}

// Result is one finished run: the Values and Lines that GET
// /v1/jobs/{id}/values serves, an observed run's raw result and sink
// (Sink.WriteArtifact exports it), or a tune job's search.
type Result struct {
	Values map[string]float64
	Lines  []string
	Run    *workload.RunResult
	Sink   *obs.Sink
	Tune   *tune.Result
}

// Run validates req and executes it: the one path from a request to a
// run for both binaries. Scheduler workers call it for every admitted
// job, and accelsim for its -trace/-report and -tune modes (its -exp
// mode fans out through experiments.RunMany with req.Options).
func Run(ctx context.Context, req JobRequest, env Env) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	switch req.Type {
	case JobExperiment:
		o := req.Options(env)
		o.Ctx = ctx
		res, err := experiments.Registry[req.Experiment](o)
		if err != nil {
			return nil, err
		}
		return &Result{Values: maps.Clone(res.Values), Lines: slices.Clone(res.Lines)}, nil
	case JobObserved:
		spec, sink, err := workload.BuildObserved(req.observedParams(env))
		if err != nil {
			return nil, err
		}
		res, err := spec.RunCtx(ctx)
		if err != nil {
			return nil, err
		}
		vals := map[string]float64{
			"completed": float64(res.Completed),
			"timedOut":  float64(res.TimedOut),
			"fellBack":  float64(res.FellBack),
			"elapsedUs": res.Elapsed.Micros(),
			"p99Us":     res.All.P99().Micros(),
			"meanUs":    res.All.Mean().Micros(),
			"spans":     float64(sink.SpanCount()),
		}
		return &Result{Values: vals, Run: res, Sink: sink}, nil
	}
	p := req.tuneParams(env)
	var st *tune.SearchState
	if env.TuneState != nil {
		var err error
		if st, err = tune.LoadState(env.TuneState, p); err != nil {
			return nil, err
		}
	}
	res, err := tune.Run(ctx, p, st, tune.Hooks{OnGeneration: env.OnGeneration, OnEval: env.OnCell})
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"bestScore":     res.BestScore,
		"bestP99Us":     res.BestEval.P99Us,
		"bestMeanUs":    res.BestEval.MeanUs,
		"bestJoulesReq": res.BestEval.JoulesPerReq,
		"bestRPS":       res.BestEval.ThroughputRPS,
		"generations":   float64(res.Generations),
		"evals":         float64(res.Evals),
		"cacheHits":     float64(res.CacheHits),
		"converged":     boolVal(res.Converged),
	}
	lines := []string{
		fmt.Sprintf("tune %s: best %s score=%.3f", res.Objective, res.BestKey, res.BestScore),
		fmt.Sprintf("generations=%d evals=%d cacheHits=%d converged=%t",
			res.Generations, res.Evals, res.CacheHits, res.Converged),
	}
	// order-insensitive: the lines are sorted below.
	for name, level := range res.BestConfig {
		lines = append(lines, fmt.Sprintf("  %s = %s", name, level))
	}
	sort.Strings(lines[2:])
	return &Result{Values: vals, Lines: lines, Tune: res}, nil
}

// Options maps the request onto experiment Options, for Run's
// experiment jobs and accelsim's -exp fan-out alike; Run adds the
// context.
func (r JobRequest) Options(env Env) experiments.Options {
	return experiments.Options{
		Requests:    r.Requests,
		Seed:        r.Seed,
		Quick:       r.Quick,
		Parallelism: r.Parallelism,
		Check:       env.Check,
		OnCell:      env.OnCell,
	}
}

// observedParams maps the request onto the observed-run builder's
// parameters.
func (r JobRequest) observedParams(env Env) workload.ObservedParams {
	return workload.ObservedParams{
		Seed:        r.Seed,
		Requests:    r.Requests,
		Quick:       r.Quick,
		FaultRate:   r.FaultRate,
		FaultWindow: sim.FromMicros(r.FaultWindowUs),
		FaultLoss:   r.FaultLoss,
		Control:     r.Control,
		Check:       env.Check,
	}
}

// tuneParams maps the request onto the search parameters.
// Parallelism and Check are execution-only (outside the signature).
func (r JobRequest) tuneParams(env Env) tune.Params {
	space := tune.DefaultSpace()
	if r.Space != nil {
		space = *r.Space
	}
	return tune.Params{
		Objective:      r.Objective,
		Space:          space,
		Seed:           r.Seed,
		Requests:       r.Requests,
		LoadScale:      r.LoadScale,
		SLOUs:          r.SLOUs,
		MaxGenerations: r.Generations,
		Patience:       r.Patience,
		Quick:          r.Quick,
		Parallelism:    r.Parallelism,
		Check:          env.Check,
	}
}

// boolVal renders a bool into the values map's float domain.
func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
