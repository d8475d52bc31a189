// Package faultinject deterministically injects faults — errors, panics,
// and slow cells — into sweep workloads, so the test suite can prove the
// engine's robustness claims instead of asserting them: a poisoned cell is
// isolated to its own result, and cancellation cuts a sweep at the promised
// boundary.
//
// The package is production-free scaffolding: internal/bench must never
// import it (the lint target's dependency check pins this); only tests do.
package faultinject

import (
	"fmt"
	"sync/atomic"
	"time"

	"scale/internal/arch"
	"scale/internal/gnn"
	"scale/internal/graph"
)

// Kind selects what a Fault does when triggered.
type Kind int

const (
	// Error makes the faulted call return Err.
	Error Kind = iota
	// Panic makes the faulted call panic with Value.
	Panic
	// Delay makes the faulted call sleep for Sleep before proceeding.
	Delay
)

// Fault is one injected behaviour.
type Fault struct {
	Kind  Kind
	Err   error         // returned when Kind == Error
	Value any           // panicked when Kind == Panic
	Sleep time.Duration // slept when Kind == Delay
}

// trigger fires the fault. Error faults return their error; Panic faults
// panic; Delay faults sleep and return nil (the wrapped call proceeds).
func (f Fault) trigger() error {
	switch f.Kind {
	case Error:
		if f.Err != nil {
			return f.Err
		}
		return fmt.Errorf("faultinject: injected error")
	case Panic:
		v := f.Value
		if v == nil {
			v = "faultinject: injected panic"
		}
		panic(v) // lint:allow-panic — the whole point of this package
	case Delay:
		time.Sleep(f.Sleep)
	}
	return nil
}

// Plan maps item index → fault, making an injection schedule deterministic
// and self-describing: the same plan produces the same failure pattern on
// every run, regardless of worker count or interleaving.
type Plan map[int]Fault

// Wrap returns fn with the plan applied: before item i runs, its planned
// fault (if any) triggers. Error faults replace the call; Delay faults
// precede it.
func (p Plan) Wrap(fn func(int) error) func(int) error {
	return func(i int) error {
		if f, ok := p[i]; ok {
			if err := f.trigger(); err != nil {
				return err
			}
		}
		return fn(i)
	}
}

// Accelerator wraps an arch.Accelerator, injecting faults into Run calls by
// (model, dataset) cell. It lets tests poison exactly one cell of a sweep
// and observe the blast radius. Calls counts Run invocations (including
// faulted ones), so tests can also assert what a sweep re-executed.
type Accelerator struct {
	Inner arch.Accelerator
	// Cells maps "model|dataset" (see CellKey) to the fault injected when
	// Run is invoked for that cell.
	Cells map[string]Fault

	calls atomic.Int64
}

// CellKey builds the Cells key for a model/dataset pair.
func CellKey(model, dataset string) string { return model + "|" + dataset }

// Name implements arch.Accelerator.
func (a *Accelerator) Name() string { return a.Inner.Name() }

// MACs implements arch.Accelerator.
func (a *Accelerator) MACs() int { return a.Inner.MACs() }

// Supports implements arch.Accelerator.
func (a *Accelerator) Supports(m *gnn.Model) bool { return a.Inner.Supports(m) }

// Calls returns how many times Run has been invoked.
func (a *Accelerator) Calls() int64 { return a.calls.Load() }

// Run implements arch.Accelerator, triggering the cell's planned fault (if
// any) before delegating to the wrapped accelerator.
func (a *Accelerator) Run(m *gnn.Model, p *graph.Profile) (*arch.Result, error) {
	a.calls.Add(1)
	if f, ok := a.Cells[CellKey(m.ModelName, p.Name)]; ok {
		if err := f.trigger(); err != nil {
			return nil, err
		}
	}
	return a.Inner.Run(m, p)
}
