package bench

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"scale/internal/fault"
)

// pool bounds the number of goroutines a sweep may occupy. One pool is
// shared by every fan-out of a run — the experiment-level fan-out and the
// sweeps inside individual experiments — so the total concurrency stays at
// the configured budget no matter how deeply fan-outs nest.
type pool struct {
	// sem holds workers-1 slots: the calling goroutine is itself a worker,
	// so a budget of N admits N-1 helpers.
	sem chan struct{}
}

func newPool(workers int) *pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &pool{sem: make(chan struct{}, workers-1)}
}

// forEach runs fn(0..n-1), spawning a helper goroutine per item while pool
// slots are free and running the item inline on the caller's goroutine
// otherwise. Running overflow inline (rather than blocking on a slot) is
// what makes nested forEach calls deadlock-free: a worker that fans out
// again always makes progress on its own items.
//
// forEach is the fault-isolation boundary of the sweep engine:
//
//   - A panicking item is recovered into a *fault.PanicError instead of
//     killing the process; items already in flight still complete.
//   - Once any item has failed — or ctx is done — no further items are
//     launched. Items launch in index order, so every index below the first
//     failing one has already been launched, which keeps the reported error
//     deterministic: the first error in index order among completed items,
//     independent of goroutine interleaving.
//   - Deadlines and cancellation propagate through ctx; when the items all
//     succeed but the sweep was cut short, forEach returns ctx.Err().
//
// Results must be written to caller-owned, per-index storage.
func (p *pool) forEach(ctx context.Context, n int, fn func(int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	var failed atomic.Bool
	run := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				errs[i] = fault.Recovered(v)
			}
			if errs[i] != nil {
				failed.Store(true)
			}
		}()
		errs[i] = fn(i)
	}
	launched := n
	for i := 0; i < n; i++ {
		if failed.Load() || ctx.Err() != nil {
			launched = i
			break
		}
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-p.sem }()
				run(i)
			}(i)
		default:
			run(i)
		}
	}
	wg.Wait()
	for _, err := range errs[:launched] {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// ExperimentResult is one experiment's outcome in a Runner sweep.
type ExperimentResult struct {
	Experiment Experiment
	Table      *Table
	Err        error
}

// Runner executes the evaluation suite on a bounded worker pool. It fans
// experiments (and, through the suite, the sweeps inside each experiment)
// across goroutines and reassembles results in input order: result i always
// corresponds to input experiment i, whatever order the workers finish in.
//
// A Runner wires its pool into the Suite, so construct one Runner per Suite
// and reuse it; two Runners driving one Suite would race on the suite's
// parallelism setting (the caches themselves stay safe). Run one sweep at a
// time per Runner: a RunContext call installs its context on the Suite for
// the duration.
type Runner struct {
	Suite   *Suite
	Workers int
	pool    *pool
}

// NewRunner returns a Runner with the given worker budget. workers < 1
// selects runtime.GOMAXPROCS(0). The suite's fan-outs are bounded by the
// same budget.
func NewRunner(s *Suite, workers int) *Runner {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := newPool(workers)
	s.setPool(p)
	return &Runner{Suite: s, Workers: workers, pool: p}
}

// WarmContext fills the suite's result cache for the whole evaluation
// matrix: every (accelerator, model, dataset) cell, fanned across the pool.
// The singleflight caches guarantee each profile, redundancy analysis, and
// simulation runs exactly once even though many workers request them
// concurrently. Cancelling ctx stops launching new cells; cells already in
// flight complete first.
func (r *Runner) WarmContext(ctx context.Context) error {
	type cell struct{ model, dataset string }
	s := r.Suite
	restore := s.withContext(ctx)
	defer restore()
	cells := make([]cell, 0, len(s.Models)*len(s.Datasets))
	for _, m := range s.Models {
		for _, d := range s.Datasets {
			cells = append(cells, cell{m, d})
		}
	}
	return r.pool.forEach(ctx, len(cells), func(i int) error {
		_, err := s.RunCell(cells[i].model, cells[i].dataset)
		return err
	})
}

// Run executes the given experiments concurrently and returns their results
// in input order.
func (r *Runner) Run(exps []Experiment) []ExperimentResult {
	return r.RunContext(context.Background(), exps)
}

// RunContext is Run under a context. Per-experiment failures — including
// contained panics, reported as *fault.PanicError — are carried in the
// results, never aborting the sweep: one poisoned cell degrades one result
// while every other experiment completes. Cancellation is honoured at
// experiment boundaries (no new experiments start) and, through the Suite,
// at the cell boundaries inside each experiment's sweeps; experiments that
// never ran carry ctx's error in their result.
func (r *Runner) RunContext(ctx context.Context, exps []Experiment) []ExperimentResult {
	restore := r.Suite.withContext(ctx)
	defer restore()
	out := make([]ExperimentResult, len(exps))
	ran := make([]bool, len(exps))
	_ = r.pool.forEach(ctx, len(exps), func(i int) error {
		ran[i] = true
		t, err := runExperiment(exps[i], r.Suite)
		out[i] = ExperimentResult{Experiment: exps[i], Table: t, Err: err}
		return nil // per-experiment errors are carried in the result
	})
	for i := range out {
		if !ran[i] {
			out[i] = ExperimentResult{Experiment: exps[i], Err: ctx.Err()}
		}
	}
	return out
}

// runExperiment executes one experiment with panic containment: a panic
// anywhere under the experiment's generator — including inside accelerator
// kernels — surfaces as that experiment's *fault.PanicError.
func runExperiment(e Experiment, s *Suite) (t *Table, err error) {
	err = fault.Safely(func() error {
		var rerr error
		t, rerr = e.Run(s)
		return rerr
	})
	if err != nil {
		t = nil
	}
	return t, err
}
