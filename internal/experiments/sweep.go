// Parallel sweep engine. Every evaluation experiment is a matrix of
// independent discrete-event simulations (policy × service × load ×
// config); this file fans those cells out over a bounded worker pool
// while keeping results bit-identical to a serial run.
//
// Determinism contract:
//
//   - Each cell's RNG stream is derived from (Options.Seed, Cell.Key)
//     via sim.DeriveSeed, never from shared RNG state, wall clock, or
//     scheduling order. A cell computes the same value no matter which
//     worker runs it or when.
//   - Workers write only to their own pre-allocated result slot; no
//     map, recorder, or Result is shared between goroutines. Runners
//     merge cell outputs into Result.Values single-threaded, in
//     submission order, after the pool joins.
//   - On error the lowest-indexed failing cell wins, so even failures
//     are reproducible across worker counts. A cell that panics fails
//     with an error naming its key (runCell).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"accelflow/internal/sim"
)

// Cell is one independent simulation of an experiment's sweep matrix.
// Key must be unique within the sweep and stable across runs: it names
// the cell's RNG stream, so renaming a key moves that cell to a
// different (still deterministic) trajectory.
type Cell[T any] struct {
	Key string
	Run func(seed int64) (T, error)
}

// parallelism resolves Options.Parallelism to a concrete worker count.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// RunCells executes the cells on a bounded worker pool and returns
// their outputs in submission order. Results are independent of the
// worker count and of completion order; see the package comment above
// for the contract.
//
// Cancellation (Options.Ctx) is cooperative: once the context is done,
// no new cell starts — the feeder stops dispatching and workers skip
// cells already handed to them — and cells whose Run observes the
// context (e.g. via workload.RunSpec.RunCtx) stop mid-simulation. The
// error path stays deterministic under cancellation: the
// lowest-indexed genuine cell failure wins over any cancellation
// error, and a sweep that only saw cancellation reports ctx's error. A
// zero-cell sweep spawns no workers and returns immediately — with
// ctx's error when the context is already cancelled, else with an
// empty result.
func RunCells[T any](o Options, cells []Cell[T]) ([]T, error) {
	ctx := o.ctx()
	results := make([]T, len(cells))
	if len(cells) == 0 {
		return results, ctx.Err()
	}
	errs := make([]error, len(cells))
	fanOut(ctx, o.parallelism(), len(cells), func(i int) {
		if errs[i] = ctx.Err(); errs[i] == nil {
			results[i], errs[i] = runCell(cells[i], sim.DeriveSeed(o.Seed, cells[i].Key))
		}
		if o.OnCell != nil {
			o.OnCell(CellEvent{Key: cells[i].Key, Index: i, Total: len(cells), Err: errs[i]})
		}
	}, func(i int) { errs[i] = ctx.Err() })
	var cancelErr error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if cancelErr == nil {
				cancelErr = err
			}
		default:
			// Lowest-indexed genuine failure, reproducible across worker
			// counts and cancellation timing (a cancelled sweep can hide
			// failures in cells it never ran, but never reorders them).
			return nil, err
		}
	}
	if cancelErr != nil {
		return nil, cancelErr
	}
	return results, nil
}

// runCell runs one cell on its fanOut worker. A panic becomes the
// cell's error, naming its key, so a faulty cell fails its own sweep
// instead of the process — and every other tenant's work with it.
func runCell[T any](c Cell[T], seed int64) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: cell %q panicked: %v", c.Key, r)
		}
	}()
	return c.Run(seed)
}

// Outcome is one experiment's result under RunMany, with wall-clock
// timing for the CLI's -exp all report.
type Outcome struct {
	ID      string
	Res     *Result
	Err     error
	Elapsed time.Duration
}

// RunMany executes the named Registry experiments concurrently (each
// experiment additionally fans out its own cells) and returns outcomes
// in the order the ids were given. Experiment-level concurrency shares
// the Options.Parallelism bound; with Parallelism 1 everything runs
// serially, which is the baseline the sweep benchmarks compare against.
// When Options.Ctx is cancelled, experiments not yet started report
// ctx's error and started ones stop through their own sweep plumbing.
func RunMany(ids []string, o Options) []Outcome {
	out := make([]Outcome, len(ids))
	if len(ids) == 0 {
		return out
	}
	ctx := o.ctx()
	fanOut(ctx, o.parallelism(), len(ids), func(i int) {
		id := ids[i]
		run, ok := Registry[id]
		if !ok {
			out[i] = Outcome{ID: id, Err: errUnknownExperiment(id)}
			return
		}
		if err := ctx.Err(); err != nil {
			out[i] = Outcome{ID: id, Err: err}
			return
		}
		start := time.Now()
		defer func() {
			// A panic outside any cell (runCell contains those) fails
			// only this outcome, not the experiments beside it.
			if r := recover(); r != nil {
				out[i] = Outcome{ID: id, Err: fmt.Errorf("experiments: experiment %q panicked: %v", id, r), Elapsed: time.Since(start)}
			}
		}()
		res, err := run(o)
		out[i] = Outcome{ID: id, Res: res, Err: err, Elapsed: time.Since(start)}
	}, func(i int) { out[i] = Outcome{ID: ids[i], Err: ctx.Err()} })
	return out
}

// fanOut calls do(i) for every i in [0, n) on a pool of workers
// goroutines (clamped to [1, n]) and returns once the pool has joined.
// Once ctx is done no further index is dispatched: skip(i) runs, on the
// calling goroutine, for every index never handed to a worker — no
// worker touches those, so skip may write their slots without racing.
// A dispatched index always reaches do, which decides for itself what
// a dead context means.
func fanOut(ctx context.Context, workers, n int, do, skip func(i int)) {
	workers = max(1, min(workers, n))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				do(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			for j := i; j < n; j++ {
				skip(j)
			}
			break feed
		}
	}
	close(idx)
	wg.Wait()
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string { return "unknown experiment " + string(e) }
