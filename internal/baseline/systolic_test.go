package baseline

import (
	"testing"

	"scale/internal/gnn"
	"scale/internal/graph"
)

func TestSystolicGeometry(t *testing.T) {
	cases := []struct {
		macs, rows, cols int
	}{
		{512, 16, 32},
		{1024, 32, 32},
		{2048, 32, 64},
		{4096, 64, 64},
		{1, 1, 1},
		{0, 1, 1},
	}
	for _, c := range cases {
		s := NewSystolic(c.macs)
		if s.Rows() != c.rows || s.Cols() != c.cols {
			t.Errorf("NewSystolic(%d): got %dx%d, want %dx%d", c.macs, s.Rows(), s.Cols(), c.rows, c.cols)
		}
		if c.macs >= 512 && s.MACs() != c.macs {
			t.Errorf("NewSystolic(%d).MACs() = %d", c.macs, s.MACs())
		}
	}
}

func TestSystolicRunShape(t *testing.T) {
	s := NewSystolic(1024)
	d := graph.MustByName("cora")
	for _, model := range gnn.AllModelNames() {
		m := gnn.MustModel(model, d.FeatureDims, 1)
		if !s.Supports(m) {
			t.Fatalf("systolic must support %s", model)
		}
		r, err := s.Run(m, d.Profile())
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if r.Cycles <= 0 {
			t.Fatalf("%s: no cycles", model)
		}
		if r.AggUtil < 0 || r.AggUtil > 1 || r.UpdateUtil < 0 || r.UpdateUtil > 1 {
			t.Fatalf("%s: util out of range: agg=%f upd=%f", model, r.AggUtil, r.UpdateUtil)
		}
		var sum int64
		for _, lr := range r.Layers {
			sum += lr.Cycles
			if lr.Cycles != lr.Breakdown.Total() {
				t.Fatalf("%s layer %d: cycles %d != breakdown %d", model, lr.Layer, lr.Cycles, lr.Breakdown.Total())
			}
		}
		if sum != r.Cycles {
			t.Fatalf("%s: layer sum %d != total %d", model, sum, r.Cycles)
		}
		if r.Traffic.MACs <= 0 || r.Traffic.DRAMBytes() <= 0 {
			t.Fatalf("%s: empty traffic: %v", model, r.Traffic)
		}
	}
}

// The systolic array is the dense-dataflow reference: on the GEMM-heavy
// SAGE-Pool model its update phase runs at near-peak array efficiency, so
// its update utilization must beat the vertex-partitioned message-passing
// baseline (FlowGNN) — while on the edge-dominated sparse aggregation it
// must lose badly (one PE column of compute, gather-bound).
func TestSystolicDenseBias(t *testing.T) {
	d := graph.MustByName("cora")
	m := gnn.MustModel("gs-pl", d.FeatureDims, 1)
	p := d.Profile()

	sys, err := NewSystolic(1024).Run(m, p)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := NewFlowGNN(1024).Run(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if sys.UpdateUtil <= 0.5 {
		t.Errorf("systolic update util %.3f: expected near-peak on dense GEMMs", sys.UpdateUtil)
	}
	if sys.AggUtil >= 0.2 {
		t.Errorf("systolic agg util %.3f: sparse aggregation should be inefficient", sys.AggUtil)
	}
	t.Logf("gs-pl/cora: systolic %d cycles (util %.2f/%.2f), FlowGNN %d cycles (util %.2f/%.2f)",
		sys.Cycles, sys.AggUtil, sys.UpdateUtil, flow.Cycles, flow.AggUtil, flow.UpdateUtil)
}

// Rows returns the PE-array row count.
func (s *Systolic) Rows() int { return s.rows }

// Cols returns the PE-array column count.
func (s *Systolic) Cols() int { return s.cols }
