package gnn

import (
	"math"
	"slices"
	"testing"

	"scale/internal/graph"
	"scale/internal/tensor"
)

// Deep chains: every model must compose beyond the 2-layer evaluation.
func TestDeepForwardAllModels(t *testing.T) {
	g := graph.ErdosRenyi(60, 240, 21)
	dims := []int{10, 8, 8, 6, 4}
	for _, name := range AllModelNames() {
		m := MustModel(name, dims, 3)
		if len(m.Layers) != 4 {
			t.Fatalf("%s: %d layers", name, len(m.Layers))
		}
		x := RandomFeatures(g, 10, 4)
		outs, err := Forward(m, g, x)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		final := outs[len(outs)-1]
		if final.Cols != 4 {
			t.Fatalf("%s: out dim %d", name, final.Cols)
		}
		for _, v := range final.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: non-finite output after 4 layers", name)
			}
		}
	}
}

// gs-mean hand check: a 2-vertex path where vertex 1 averages its single
// neighbor — mean of one element is the element.
func TestSAGEMeanHandComputed(t *testing.T) {
	g := graph.Path(2)
	m := MustModel("gs-mean", []int{2, 3}, 5)
	l := m.Layers[0].(*sageMeanLayer)
	x := tensor.FromRows([][]float32{{1, 2}, {3, 4}})
	outs, err := Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	l.ensure()
	want := tensor.VecMat(slices.Concat([]float32{3, 4}, []float32{1, 2}), l.w)
	got := outs[0].Row(1)
	for i := range want {
		if math.Abs(float64(want[i]-got[i])) > 1e-5 {
			t.Fatalf("gs-mean mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// gs-mean on a star with identical leaves: the mean equals one leaf.
func TestSAGEMeanAveraging(t *testing.T) {
	g := graph.Star(5)
	m := MustModel("gs-mean", []int{3, 2}, 7)
	x := tensor.NewMatrix(5, 3)
	leaf := []float32{0.5, -0.2, 0.1}
	for v := 1; v < 5; v++ {
		copy(x.Row(v), leaf)
	}
	outs, err := Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Forward(m, graph.Star(2), tensor.FromRows([][]float32{make([]float32, 3), leaf}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs[0].Row(0) {
		if math.Abs(float64(outs[0].Row(0)[i]-two[0].Row(0)[i])) > 1e-5 {
			t.Fatal("mean over identical leaves should be leaf-count invariant")
		}
	}
}

// Work accounting is self-consistent for every model: op totals over a
// profile are positive and scale with the edge count.
func TestWorkScalesWithEdges(t *testing.T) {
	small := graph.NewProfile("s", []int32{2, 2, 2, 2})
	big := graph.NewProfile("b", []int32{20, 20, 20, 20})
	for _, name := range AllModelNames() {
		m := MustModel(name, []int{16, 8}, 1)
		w := m.Layers[0].Work()
		if w.AggOps(small) <= 0 {
			t.Fatalf("%s: no aggregation work", name)
		}
		if w.AggOps(big) <= w.AggOps(small) {
			t.Fatalf("%s: aggregation work must grow with edges", name)
		}
		if w.UpdateOps(big) != w.UpdateOps(small) {
			t.Fatalf("%s: update work must depend on vertices only", name)
		}
	}
}

// The sagePool cap: Nell-scale inputs pool into a bounded hidden space.
func TestSAGEPoolDimCap(t *testing.T) {
	m := MustModel("gs-pl", []int{61278, 64}, 1)
	l := m.Layers[0]
	if l.MsgDim() != 512 {
		t.Fatalf("pool dim = %d, want capped 512", l.MsgDim())
	}
	small := MustModel("gs-pl", []int{100, 10}, 1)
	if small.Layers[0].MsgDim() != 100 {
		t.Fatalf("small pool dim = %d, want uncapped 100", small.Layers[0].MsgDim())
	}
}

// UpdateWeights contract for the register-level pipeline.
func TestGCNUpdateWeightsShape(t *testing.T) {
	m := MustModel("gcn", []int{12, 5}, 1)
	l := m.Layers[0].(*gcnLayer)
	w := l.UpdateWeights()
	if w.Rows != 12 || w.Cols != 5 {
		t.Fatalf("UpdateWeights %dx%d", w.Rows, w.Cols)
	}
	if l.UpdateWeights() != w {
		t.Fatal("weights must be materialized once")
	}
}
