package arch

import (
	"strings"
	"testing"

	"scale/internal/gnn"
	"scale/internal/graph"
)

func TestBreakdownTotalAndAdd(t *testing.T) {
	b := Breakdown{Agg: 1, Update: 2, ExposedComm: 3, Sched: 4, MemStall: 5}
	if b.Total() != 15 {
		t.Fatalf("Total = %d", b.Total())
	}
	var acc Breakdown
	acc.Add(b)
	acc.Add(b)
	if acc.Total() != 30 || acc.Agg != 2 || acc.MemStall != 10 {
		t.Fatalf("Add wrong: %+v", acc)
	}
}

func TestFinalize(t *testing.T) {
	r := &Result{
		Layers: []LayerResult{
			{Cycles: 100, Breakdown: Breakdown{Agg: 60, Update: 40}, AggUtil: 0.9, UpdateUtil: 0.8},
			{Cycles: 300, Breakdown: Breakdown{Agg: 100, Update: 200}, AggUtil: 0.5, UpdateUtil: 0.6},
		},
	}
	r.Finalize()
	if r.Cycles != 400 {
		t.Fatalf("Cycles = %d", r.Cycles)
	}
	if r.Breakdown.Agg != 160 || r.Breakdown.Update != 240 {
		t.Fatalf("Breakdown = %+v", r.Breakdown)
	}
	// Cycle-weighted means must sit between the layer values, nearer the
	// heavier layer.
	if r.AggUtil < 0.5 || r.AggUtil > 0.9 {
		t.Fatalf("AggUtil = %v", r.AggUtil)
	}
	if r.AggUtil > 0.75 {
		t.Fatalf("AggUtil %v should lean toward the heavy layer's 0.5", r.AggUtil)
	}
}

func TestFinalizeEmpty(t *testing.T) {
	r := &Result{}
	r.Finalize()
	if r.Cycles != 0 {
		t.Fatal("empty result should have zero cycles")
	}
}

func TestSpeedupAndSeconds(t *testing.T) {
	base := &Result{Cycles: 1000}
	fast := &Result{Cycles: 250}
	if sp := Speedup(base, fast); sp != 4 {
		t.Fatalf("Speedup = %v", sp)
	}
	if Speedup(base, &Result{}) != 0 {
		t.Fatal("zero-cycle result must not divide by zero")
	}
}

func TestResultString(t *testing.T) {
	r := &Result{Accelerator: "X", Model: "gcn", Dataset: "cora", Cycles: 5}
	if !strings.Contains(r.String(), "X gcn/cora") {
		t.Fatalf("String = %q", r.String())
	}
}

type fakeAccel struct{ supports bool }

func (f fakeAccel) Name() string               { return "fake" }
func (f fakeAccel) MACs() int                  { return 1 }
func (f fakeAccel) Supports(m *gnn.Model) bool { return f.supports }
func (f fakeAccel) Run(m *gnn.Model, p *graph.Profile) (*Result, error) {
	return &Result{}, nil
}

func TestCheckRunnable(t *testing.T) {
	m := gnn.MustModel("gcn", []int{4, 2}, 1)
	p := graph.NewProfile("p", []int32{1, 2})
	if err := CheckRunnable(fakeAccel{true}, m, p); err != nil {
		t.Fatal(err)
	}
	if err := CheckRunnable(fakeAccel{true}, nil, p); err == nil {
		t.Fatal("nil model must fail")
	}
	if err := CheckRunnable(fakeAccel{true}, m, graph.NewProfile("e", nil)); err == nil {
		t.Fatal("empty profile must fail")
	}
	if err := CheckRunnable(fakeAccel{false}, m, p); err == nil {
		t.Fatal("unsupported model must fail")
	}
}
