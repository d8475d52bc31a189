package gnn

import (
	"math"
	"testing"

	"scale/internal/graph"
	"scale/internal/tensor"
)

func TestMultiHeadSplitsEvenly(t *testing.T) {
	l := newMultiHeadGATLayer(1, 16, 12, 4, true)
	if l.heads != 4 || l.headDim != 3 {
		t.Fatalf("heads=%d dim=%d", l.heads, l.headDim)
	}
	// Indivisible widths reduce the head count until they split.
	odd := newMultiHeadGATLayer(1, 16, 5, 4, true)
	if odd.heads != 1 || odd.headDim != 5 {
		t.Fatalf("odd split: heads=%d dim=%d", odd.heads, odd.headDim)
	}
	if l.Name() != "gat-4h" {
		t.Fatalf("name %q", l.Name())
	}
	if l.MsgDim() != 4*(3+1) {
		t.Fatalf("MsgDim = %d", l.MsgDim())
	}
}

// Multi-head attention on a star with identical leaves: every head's softmax
// is uniform, so the hub output is the concatenation of per-head transforms
// of the shared leaf — i.e. identical to aggregating a single leaf.
func TestMultiHeadConvexity(t *testing.T) {
	m := MustModel("gat-4h", []int{6, 8}, 3)
	leaf := []float32{0.3, -0.1, 0.2, 0.4, -0.2, 0.1}
	big := graph.Star(6)
	xBig := tensor.NewMatrix(6, 6)
	for v := 1; v < 6; v++ {
		copy(xBig.Row(v), leaf)
	}
	outBig, err := Forward(m, big, xBig)
	if err != nil {
		t.Fatal(err)
	}
	small := graph.Star(2)
	xSmall := tensor.NewMatrix(2, 6)
	copy(xSmall.Row(1), leaf)
	outSmall, err := Forward(m, small, xSmall)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outBig[0].Row(0) {
		d := math.Abs(float64(outBig[0].Row(0)[i] - outSmall[0].Row(0)[i]))
		if d > 1e-5 {
			t.Fatalf("head softmax not leaf-count invariant at %d: diff %g", i, d)
		}
	}
}

// Head independence: a 1-head multi-head layer must agree with the plain GAT
// layer built from the same seed.
func TestSingleHeadDegeneratesToGAT(t *testing.T) {
	g := graph.ErdosRenyi(30, 120, 5)
	x := RandomFeatures(g, 8, 7)
	mh := newMultiHeadGATLayer(9, 8, 6, 1, false) // head seed = 9*31
	plain := newGATLayer(9*31, 8, 6, false)
	a, err := ForwardLayerParallel(mh, g, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ForwardLayerParallel(plain, g, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !a.AllClose(b, 1e-4, 1e-5) {
		t.Fatalf("1-head multi-head diverged from GAT: max diff %g", a.MaxAbsDiff(b))
	}
}

func TestMultiHeadWorkAggregates(t *testing.T) {
	l := newMultiHeadGATLayer(1, 16, 12, 4, true)
	w := l.Work()
	single := newGATLayer(1, 16, 3, true).Work()
	if w.PreMACsPerVertex != 4*single.PreMACsPerVertex {
		t.Fatalf("pre MACs %d, want 4x%d", w.PreMACsPerVertex, single.PreMACsPerVertex)
	}
	if w.WeightBytes != 4*single.WeightBytes {
		t.Fatalf("weights %d, want 4x%d", w.WeightBytes, single.WeightBytes)
	}
	if w.OutDim != 12 || w.MsgDim != l.MsgDim() {
		t.Fatalf("dims: %+v", w)
	}
}
