package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"scale/internal/bench"
	"scale/internal/bench/faultinject"
	"scale/internal/fault"
)

// synthExperiments builds n deterministic synthetic experiments whose tables
// depend only on the index, optionally faulted by the plan.
func synthExperiments(n int, plan faultinject.Plan) []bench.Experiment {
	exps := make([]bench.Experiment, n)
	for i := 0; i < n; i++ {
		i := i
		run := plan.Wrap(func(int) error { return nil })
		exps[i] = bench.Experiment{
			ID:          fmt.Sprintf("synth-%d", i),
			Description: "synthetic",
			Run: func(*bench.Suite) (*bench.Table, error) {
				if err := run(i); err != nil {
					return nil, err
				}
				t := &bench.Table{
					Title:  fmt.Sprintf("synthetic table %d", i),
					Header: []string{"k", "v"},
				}
				t.AddRow("index", fmt.Sprint(i))
				t.AddRow("square", fmt.Sprint(i*i))
				return t, nil
			},
		}
	}
	return exps
}

// TestPanicIsolatedToItsExperiment proves the core isolation claim: one
// panicking experiment degrades exactly one result while every other
// experiment completes, and the contained panic surfaces as a typed
// *fault.PanicError carrying the panic value.
func TestPanicIsolatedToItsExperiment(t *testing.T) {
	plan := faultinject.Plan{2: {Kind: faultinject.Panic, Value: "kernel shape violation"}}
	r := bench.NewRunner(bench.NewSuite(), 4)
	out := r.Run(synthExperiments(6, plan))
	if len(out) != 6 {
		t.Fatalf("got %d results, want 6", len(out))
	}
	for i, res := range out {
		if i == 2 {
			var pe *fault.PanicError
			if !errors.As(res.Err, &pe) {
				t.Fatalf("result 2: err = %v, want *fault.PanicError", res.Err)
			}
			if pe.Value != "kernel shape violation" {
				t.Errorf("panic value = %v", pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Error("panic error carries no stack")
			}
			continue
		}
		if res.Err != nil {
			t.Errorf("result %d: unexpected error %v (blast radius escaped item 2)", i, res.Err)
		}
		if res.Table == nil {
			t.Errorf("result %d: no table", i)
		}
	}
}

// TestErrorFaultCarriedInResult proves injected deterministic errors are
// reported per-experiment without aborting the sweep.
func TestErrorFaultCarriedInResult(t *testing.T) {
	boom := errors.New("boom")
	plan := faultinject.Plan{
		1: {Kind: faultinject.Error, Err: boom},
		3: {Kind: faultinject.Error, Err: boom},
	}
	out := bench.NewRunner(bench.NewSuite(), 2).Run(synthExperiments(5, plan))
	for i, res := range out {
		faulted := i == 1 || i == 3
		if faulted && !errors.Is(res.Err, boom) {
			t.Errorf("result %d: err = %v, want boom", i, res.Err)
		}
		if !faulted && res.Err != nil {
			t.Errorf("result %d: unexpected error %v", i, res.Err)
		}
	}
}

// TestCancellationStopsAtExperimentBoundary proves cancellation latency
// deterministically: with a serial runner, experiment 0 cancels the sweep
// from inside, and no later experiment starts — they all carry ctx's error.
func TestCancellationStopsAtExperimentBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exps := synthExperiments(5, nil)
	ran := make([]bool, len(exps))
	for i := range exps {
		i, inner := i, exps[i].Run
		exps[i].Run = func(s *bench.Suite) (*bench.Table, error) {
			ran[i] = true
			if i == 0 {
				cancel()
			}
			return inner(s)
		}
	}
	out := bench.NewRunner(bench.NewSuite(), 1).RunContext(ctx, exps)
	if out[0].Err != nil || out[0].Table == nil {
		t.Fatalf("experiment 0 (in flight at cancel) should complete: %+v", out[0])
	}
	for i := 1; i < len(out); i++ {
		if ran[i] {
			t.Errorf("experiment %d started after cancellation", i)
		}
		if !errors.Is(out[i].Err, context.Canceled) {
			t.Errorf("experiment %d: err = %v, want context.Canceled", i, out[i].Err)
		}
	}
}

// TestCancellationCutsDelayedSweepShort proves, wall-clock-wise, that a
// cancelled sweep does not run its remaining slow experiments: 8 cells of
// 100ms each on one worker would serially take 800ms, but cancelling during
// cell 0 finishes the sweep in roughly one cell.
func TestCancellationCutsDelayedSweepShort(t *testing.T) {
	const cellDelay = 100 * time.Millisecond
	plan := faultinject.Plan{}
	for i := 0; i < 8; i++ {
		plan[i] = faultinject.Fault{Kind: faultinject.Delay, Sleep: cellDelay}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(cellDelay / 4)
		cancel()
	}()
	start := time.Now()
	out := bench.NewRunner(bench.NewSuite(), 1).RunContext(ctx, synthExperiments(8, plan))
	elapsed := time.Since(start)
	// Generous bound: the in-flight cell completes, later cells must not run.
	if elapsed > 4*cellDelay {
		t.Fatalf("cancelled sweep took %v, want well under the 800ms serial time", elapsed)
	}
	unstarted := 0
	for _, res := range out {
		if errors.Is(res.Err, context.Canceled) {
			unstarted++
		}
	}
	if unstarted == 0 {
		t.Fatal("no experiment was cut short by cancellation")
	}
}

// TestSuiteCellFaultIsolation injects a panic into exactly one simulation
// cell through the accelerator seam and proves the suite contains it: the
// poisoned cell reports a typed CellError naming the cell, the error is
// cached deterministically (no second simulation attempt), and sibling
// cells on the same accelerator are untouched.
func TestSuiteCellFaultIsolation(t *testing.T) {
	s := bench.NewSuite()
	inner, err := s.SCALE()
	if err != nil {
		t.Fatal(err)
	}
	inj := &faultinject.Accelerator{
		Inner: inner,
		Cells: map[string]faultinject.Fault{
			faultinject.CellKey("gcn", "cora"): {Kind: faultinject.Panic, Value: "poisoned cell"},
		},
	}

	_, err = s.Run(inj, "gcn", "cora")
	var ce *fault.CellError
	if !errors.As(err, &ce) {
		t.Fatalf("poisoned cell: err = %v, want *fault.CellError", err)
	}
	if ce.Model != "gcn" || ce.Dataset != "cora" {
		t.Errorf("cell error names (%s, %s)", ce.Model, ce.Dataset)
	}
	var pe *fault.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("cell error should wrap the contained panic, got %v", err)
	}

	if _, err := s.Run(inj, "gcn", "citeseer"); err != nil {
		t.Fatalf("sibling cell failed: %v", err)
	}

	calls := inj.Calls()
	if _, err := s.Run(inj, "gcn", "cora"); err == nil {
		t.Fatal("cached failure should still fail")
	}
	if inj.Calls() != calls {
		t.Errorf("deterministic failure re-simulated: %d calls, want %d", inj.Calls(), calls)
	}
}
