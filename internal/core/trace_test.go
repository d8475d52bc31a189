package core

import (
	"testing"

	"scale/internal/gnn"
	"scale/internal/graph"
)

func TestRunTraced(t *testing.T) {
	s := MustNew(DefaultConfig())
	d := graph.MustByName("cora")
	m := gnn.MustModel("gcn", d.FeatureDims, 1)
	p := d.Profile()
	res, trace, err := s.RunTraced(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Layers) != 2 {
		t.Fatalf("trace layers = %d", len(trace.Layers))
	}
	for li, lt := range trace.Layers {
		if lt.Layer != li {
			t.Fatalf("layer id %d at position %d", lt.Layer, li)
		}
		if lt.RingSize != res.Layers[li].RingSize {
			t.Fatalf("trace ring %d != result ring %d", lt.RingSize, res.Layers[li].RingSize)
		}
		if lt.Batch <= 0 || lt.NumRings <= 0 {
			t.Fatalf("malformed trace: %+v", lt)
		}
		wantBatches := (p.NumVertices() + lt.Batch - 1) / lt.Batch
		if len(lt.Batches) != wantBatches {
			t.Fatalf("layer %d: %d batch records, want %d", li, len(lt.Batches), wantBatches)
		}
		var sum int64
		for _, b := range lt.Batches {
			if b.Compute <= 0 {
				t.Fatalf("layer %d: empty batch compute", li)
			}
			sum += b.Compute
		}
		// Trace compute must bound the layer's compute portion from below
		// (the layer adds preload, sched exposure, memory stalls on top).
		if sum > res.Layers[li].Cycles {
			t.Fatalf("layer %d: trace compute %d exceeds layer cycles %d", li, sum, res.Layers[li].Cycles)
		}
		if e := lt.BalanceAgg(); e <= 0 || e > 1 {
			t.Fatalf("batch evenness %v out of range", e)
		}
		if lt.String() == "" {
			t.Fatal("empty trace string")
		}
	}
	// Traced and untraced runs must agree exactly.
	plain, err := s.Run(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != res.Cycles {
		t.Fatalf("traced run diverged: %d vs %d", res.Cycles, plain.Cycles)
	}
}

func TestRunTracedRejectsEmpty(t *testing.T) {
	s := MustNew(DefaultConfig())
	if _, _, err := s.RunTraced(nil, graph.NewProfile("p", []int32{1})); err == nil {
		t.Fatal("nil model must error")
	}
}

func TestLayerTraceDegenerate(t *testing.T) {
	var lt LayerTrace
	if lt.BalanceAgg() != 1 {
		t.Fatal("empty trace evenness should be 1")
	}
}

// Ablation knobs must cost cycles, never save them.
func TestAblationKnobsCost(t *testing.T) {
	d := graph.MustByName("pubmed")
	m := gnn.MustModel("gcn", d.FeatureDims, 1)
	p := d.Profile()
	base, err := MustNew(DefaultConfig()).Run(m, p)
	if err != nil {
		t.Fatal(err)
	}
	noFusion := DefaultConfig()
	noFusion.DisableOperatorFusion = true
	rf, err := MustNew(noFusion).Run(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Cycles <= base.Cycles {
		t.Fatalf("disabling fusion should cost cycles: %d vs %d", rf.Cycles, base.Cycles)
	}
	noDB := DefaultConfig()
	noDB.DisableDoubleBuffering = true
	rd, err := MustNew(noDB).Run(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Cycles <= base.Cycles {
		t.Fatalf("disabling double buffering should cost cycles: %d vs %d", rd.Cycles, base.Cycles)
	}
	if rd.Breakdown.Sched <= base.Breakdown.Sched {
		t.Fatal("single-buffered task lists must expose scheduling")
	}
}

// Property: cycles respond monotonically to workload — doubling every degree
// must not make the run faster.
func TestCyclesMonotoneInEdges(t *testing.T) {
	s := MustNew(DefaultConfig())
	m := gnn.MustModel("gin", []int{64, 16}, 1)
	small := graph.SyntheticProfile("small", 4000, 16000, 0.6, 5)
	double := make([]int32, len(small.Degrees))
	for i, d := range small.Degrees {
		double[i] = 2 * d
	}
	big := graph.NewProfile("big", double)
	rs, err := s.Run(m, small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := s.Run(m, big)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Cycles <= rs.Cycles {
		t.Fatalf("doubled edges should cost cycles: %d vs %d", rb.Cycles, rs.Cycles)
	}
}

func TestWeightPasses(t *testing.T) {
	if weightPasses(100, 1000) != 1 || weightPasses(1000, 1000) != 1 {
		t.Fatal("fitting weights need one pass")
	}
	if weightPasses(2500, 1000) != 3 {
		t.Fatalf("passes = %d, want 3", weightPasses(2500, 1000))
	}
	if weightPasses(100, 0) != 1 {
		t.Fatal("zero capacity should degrade to one pass")
	}
}

// Forced-undersized rings pay DRAM weight refetch (the Fig. 14 cliff), so
// DRAM traffic must exceed the auto-sized configuration's.
func TestUndersizedRingRefetch(t *testing.T) {
	d := graph.MustByName("cora")
	m := gnn.MustModel("gcn", d.FeatureDims, 1)
	p := d.Profile()
	auto, err := MustNew(DefaultConfig()).Run(m, p)
	if err != nil {
		t.Fatal(err)
	}
	forced := DefaultConfig()
	forced.RingSize = 4
	small, err := MustNew(forced).Run(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if small.Traffic.DRAMBytes() <= auto.Traffic.DRAMBytes() {
		t.Fatalf("undersized ring should refetch weights: %d vs %d bytes",
			small.Traffic.DRAMBytes(), auto.Traffic.DRAMBytes())
	}
}

// §V claim, measured: per-layer ring reconfiguration (switch toggling) must
// be a vanishing share of the run even when every layer picks a new size.
func TestReconfigurationNegligible(t *testing.T) {
	s := MustNew(DefaultConfig())
	d := graph.MustByName("cora")
	m := gnn.MustModel("gcn", d.FeatureDims, 1) // layers pick rings 64 and 2
	r, err := s.Run(m, d.Profile())
	if err != nil {
		t.Fatal(err)
	}
	if r.Layers[0].RingSize == r.Layers[1].RingSize {
		t.Fatal("test premise: layers should reconfigure")
	}
	reconfig := int64(1 + s.Config().NumPEs()/r.Layers[1].RingSize)
	if share := float64(reconfig) / float64(r.Cycles); share > 0.01 {
		t.Fatalf("reconfiguration share %.4f not negligible", share)
	}
}

// Config returns the hardware configuration.
func (s *SCALE) Config() Config { return s.cfg }
