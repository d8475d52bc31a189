package core

import (
	"testing"

	"scale/internal/core/micro"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/tensor"
)

// The central functional-correctness check: the SCALE dataflow (scheduled
// chained reductions + per-vertex updates) must reproduce the golden
// per-edge reference forward pass byte for byte, for every model. Each
// vertex's chain adds its in-edges in CSR order, as the reference does, so
// no float is reassociated. The power-law RMAT graph adds high-degree
// vertices and every length of a four-row chain's tail.
func TestForwardMatchesReferenceAllModels(t *testing.T) {
	graphs := []*graph.Graph{
		graph.ErdosRenyi(300, 1500, 3),
		graph.RMAT(9, 4000, 7),
	}
	s := MustNew(DefaultConfig())
	for _, g := range graphs {
		for _, name := range gnn.AllModelNames() {
			m := gnn.MustModel(name, []int{24, 12, 5}, 11)
			x := gnn.RandomFeatures(g, 24, 13)
			want, err := gnn.Forward(m, g, x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Forward(m, g, x)
			if err != nil {
				t.Fatalf("%s/%s: %v", g.Name(), name, err)
			}
			for li := range want {
				if !want[li].Equal(got[li]) {
					t.Errorf("%s/%s layer %d: not byte-identical to the reference (max |Δ| = %g)",
						g.Name(), name, li, want[li].MaxAbsDiff(got[li]))
				}
			}
		}
	}
}

// A widening gcn layer (16→32, small-open's layer 0) keeps natural order,
// so its source rows are the layer input itself, which belongs to the
// caller (a dynamic graph's shared snapshot rows, a carried request's
// adopted features). The executor scales them by SrcCoef into its own
// scratch: the input must come back byte-identical at every worker count,
// and the output must still be byte-identical to the reference.
func TestWideningLayerLeavesInputUnwritten(t *testing.T) {
	g := graph.RMAT(8, 2000, 5)
	m := gnn.MustModel("gcn", []int{16, 32, 8}, 3)
	x := gnn.RandomFeatures(g, 16, 4)
	orig := x.Clone()
	want, err := gnn.Forward(m, g, orig)
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(DefaultConfig())
	for _, workers := range []int{1, 2, 8} {
		got, err := s.ForwardParallel(m, g, x, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !x.Equal(orig) {
			t.Fatalf("workers=%d: the widening layer wrote its input matrix", workers)
		}
		for li := range want {
			if !want[li].Equal(got[li]) {
				t.Fatalf("workers=%d layer %d: not byte-identical to the reference", workers, li)
			}
		}
	}
}

// The dataflow must be correct for every scheduling policy (the mapping
// changes, the math must not).
func TestForwardPolicyInvariant(t *testing.T) {
	g := graph.PreferentialAttachment(200, 3, 5)
	m := gnn.MustModel("gin", []int{10, 6}, 3)
	x := gnn.RandomFeatures(g, 10, 5)
	want, err := gnn.Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []int{0, 1, 2} {
		cfg := DefaultConfig()
		cfg.Policy = schedPolicy(pol)
		got, err := MustNew(cfg).Forward(m, g, x)
		if err != nil {
			t.Fatal(err)
		}
		if !want[0].AllClose(got[0], 1e-3, 1e-4) {
			t.Errorf("policy %d: dataflow result diverged", pol)
		}
	}
}

// Batch size must not change results.
func TestForwardBatchInvariant(t *testing.T) {
	g := graph.CitationLike(400, 1600, 9)
	m := gnn.MustModel("gcn", []int{12, 4}, 7)
	x := gnn.RandomFeatures(g, 12, 9)
	var first *tensor.Matrix
	for _, b := range []int{64, 257, 4096} {
		cfg := DefaultConfig()
		cfg.BatchSize = b
		got, err := MustNew(cfg).Forward(m, g, x)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got[0]
		} else if !first.AllClose(got[0], 1e-4, 1e-5) {
			t.Errorf("batch %d changed the result", b)
		}
	}
}

func TestForwardValidation(t *testing.T) {
	g := graph.Path(5)
	s := MustNew(DefaultConfig())
	m := gnn.MustModel("gcn", []int{4, 2}, 1)
	if _, err := s.Forward(m, g, tensor.NewMatrix(4, 4)); err == nil {
		t.Fatal("row mismatch must error")
	}
	if _, err := s.Forward(m, g, tensor.NewMatrix(5, 3)); err == nil {
		t.Fatal("col mismatch must error")
	}
}

// Cross-validation of the micro simulator against the functional dataflow:
// build micro reduce-chain tasks from a real GCN layer's messages and check
// the ring produces the same aggregated features the functional executor
// finalizes.
func TestMicroAgreesWithFunctionalAggregation(t *testing.T) {
	g := graph.ErdosRenyi(24, 96, 17)
	l := gnn.MustModel("gcn", []int{6, 3}, 3).Layers[0]
	x := gnn.RandomFeatures(g, 6, 19)
	psrc, _ := l.Prepare(x, 1)

	ring := micro.NewRing(4)
	var tasks []micro.Task
	for v := 0; v < g.NumVertices(); v++ {
		nbrs := g.InNeighbors(v)
		if len(nbrs) == 0 {
			continue
		}
		srcs := make([][]float32, 0, len(nbrs))
		for _, u := range nbrs {
			msg := make([]float32, l.MsgDim())
			l.AccumulateEdge(msg, psrc.Row(int(u)), nil, nil, gnn.EdgeContext{
				Src: int(u), Dst: v, SrcDeg: g.InDegree(int(u)), DstDeg: len(nbrs),
			})
			srcs = append(srcs, msg)
		}
		tasks = append(tasks, micro.Task{Dst: v, Sources: srcs})
	}
	res, err := ring.SimulateAggregation(tasks, micro.Sum)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against direct accumulation per vertex.
	for ti, task := range tasks {
		acc := make([]float32, l.MsgDim())
		for _, u := range g.InNeighbors(task.Dst) {
			msg := make([]float32, l.MsgDim())
			l.AccumulateEdge(msg, psrc.Row(int(u)), nil, nil, gnn.EdgeContext{
				Src: int(u), Dst: task.Dst, SrcDeg: g.InDegree(int(u)), DstDeg: g.InDegree(task.Dst),
			})
			gnn.ReduceSum.Accumulate(acc, msg)
		}
		for e := range acc {
			d := acc[e] - res.Aggregated[ti][e]
			if d < -1e-4 || d > 1e-4 {
				t.Fatalf("vertex %d element %d: micro %v vs direct %v", task.Dst, e, res.Aggregated[ti][e], acc[e])
			}
		}
	}
}

// Micro update engine agrees with the layer's weight GEMV for the ring sizes
// Eq. 3 would pick.
func TestMicroUpdateAgreesWithLayer(t *testing.T) {
	w := tensor.RandomMatrix(randNew(5), 8, 6, 1)
	feats := [][]float32{
		tensor.RandomVector(randNew(6), 8, 1),
		tensor.RandomVector(randNew(7), 8, 1),
	}
	for _, s := range []int{2, 3, 6, 8} {
		res, err := micro.NewRing(s).SimulateUpdate(feats, w)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range feats {
			want := tensor.VecMat(f, w)
			for j := range want {
				d := want[j] - res.Outputs[i][j]
				if d < -1e-4 || d > 1e-4 {
					t.Fatalf("S=%d: output mismatch", s)
				}
			}
		}
	}
}
