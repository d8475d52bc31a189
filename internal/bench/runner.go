package bench

import (
	"context"
	"runtime"

	"scale/internal/fault"
	"scale/internal/par"
)

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
	pool    *par.Pool
}

// NewRunner returns a Runner with the given worker budget. workers < 1
// selects runtime.GOMAXPROCS(0). The suite's fan-outs are bounded by the
// same budget.
func NewRunner(s *Suite, workers int) *Runner {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := par.NewPool(workers)
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
	return r.pool.Each(ctx, len(cells), func(i int) error {
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
	_ = r.pool.Each(ctx, len(exps), func(i int) error {
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
