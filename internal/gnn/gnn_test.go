package gnn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"scale/internal/graph"
	"scale/internal/tensor"
)

func testGraph() *graph.Graph { return graph.ErdosRenyi(40, 160, 1) }

func TestNewModelAllKinds(t *testing.T) {
	for _, name := range AllModelNames() {
		m, err := NewModel(name, []int{12, 8, 4}, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(m.Layers) != 2 {
			t.Fatalf("%s: %d layers", name, len(m.Layers))
		}
		if m.InDim() != 12 || m.OutDim() != 4 {
			t.Fatalf("%s dims: %v", name, m.Dims())
		}
		if m.Name() != name {
			t.Fatalf("name %q", m.Name())
		}
	}
	if _, err := NewModel("bogus", []int{4, 2}, 1); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := NewModel("gcn", []int{4}, 1); err == nil {
		t.Fatal("single dim must error")
	}
}

func TestMustModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustModel("bogus", []int{4, 2}, 1)
}

func TestForwardShapes(t *testing.T) {
	g := testGraph()
	for _, name := range AllModelNames() {
		m := MustModel(name, []int{10, 6, 3}, 2)
		x := RandomFeatures(g, 10, 3)
		outs, err := Forward(m, g, x)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(outs) != 2 {
			t.Fatalf("%s: %d outputs", name, len(outs))
		}
		if outs[0].Rows != 40 || outs[0].Cols != 6 || outs[1].Cols != 3 {
			t.Fatalf("%s shapes: %v %v", name, outs[0], outs[1])
		}
		// Finite outputs.
		for _, v := range outs[1].Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s produced non-finite output", name)
			}
		}
	}
}

func TestForwardInputValidation(t *testing.T) {
	g := testGraph()
	m := MustModel("gcn", []int{10, 4}, 1)
	if _, err := Forward(m, g, tensor.NewMatrix(39, 10)); err == nil {
		t.Fatal("row mismatch must error")
	}
	if _, err := Forward(m, g, tensor.NewMatrix(40, 9)); err == nil {
		t.Fatal("col mismatch must error")
	}
}

func TestForwardDeterminism(t *testing.T) {
	g := testGraph()
	m := MustModel("ggcn", []int{8, 4}, 7)
	x := RandomFeatures(g, 8, 7)
	a, err := Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Forward(m, g, x)
	if !a[0].Equal(b[0]) {
		t.Fatal("forward pass must be deterministic")
	}
}

// GCN on a graph with no edges: aggregation is zero, so the update is
// W·0 = 0 (ReLU(0)=0) — a direct check of the Eq. 1-2 semantics.
func TestGCNNoEdges(t *testing.T) {
	g := graph.NewBuilder(5).Build("isolated")
	m := MustModel("gcn", []int{4, 3}, 1)
	x := RandomFeatures(g, 4, 2)
	outs, err := Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range outs[0].Data {
		if v != 0 {
			t.Fatalf("isolated vertices must aggregate to zero, got %v", v)
		}
	}
}

// GIN hand-check on a 2-vertex path: vertex 1 aggregates vertex 0 exactly.
func TestGINHandComputed(t *testing.T) {
	g := graph.Path(2)
	m := MustModel("gin", []int{2, 2}, 3)
	l := m.Layers[0].(*ginLayer)
	x := tensor.FromRows([][]float32{{1, 2}, {3, 4}})
	outs, err := Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 1: (1+eps)*[3,4] + [1,2], through the MLP.
	in := []float32{(1+l.eps)*3 + 1, (1+l.eps)*4 + 2}
	hidden := tensor.ReLU(tensor.VecMat(in, l.w1))
	want := tensor.VecMat(hidden, l.w2) // last layer: no activation
	got := outs[0].Row(1)
	for i := range want {
		if math.Abs(float64(want[i]-got[i])) > 1e-5 {
			t.Fatalf("GIN mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// GCN symmetric norm hand-check on a star: hub aggregates each leaf scaled
// by 1/sqrt(d_leaf*d_hub) with d_leaf clamped to 1.
func TestGCNNormHandComputed(t *testing.T) {
	g := graph.Star(3) // leaves 1,2 -> hub 0; hub degree 2
	m := MustModel("gcn", []int{1, 1}, 5)
	l := m.Layers[0].(*gcnLayer)
	x := tensor.FromRows([][]float32{{0}, {1}, {1}})
	outs, err := Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	norm := 1 / math.Sqrt(2)
	want := float32(2*norm) * l.w.At(0, 0)
	if want < 0 {
		want = 0 // single layer in a 2-dim chain is the last layer: no ReLU
	}
	got := outs[0].At(0, 0)
	// No activation on the last layer, so compare the raw product.
	raw := float32(2*norm) * l.w.At(0, 0)
	if math.Abs(float64(got-raw)) > 1e-5 {
		t.Fatalf("GCN norm mismatch: got %v want %v", got, raw)
	}
}

// Property: aggregation is permutation invariant (§III-B) — reversing or
// shuffling edge insertion order cannot change the forward result beyond
// float addition reordering tolerance.
func TestPermutationInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 3
		edges := make([][2]int, 0, n*3)
		for i := 0; i < n*3; i++ {
			s, d := rng.Intn(n), rng.Intn(n)
			if s != d {
				edges = append(edges, [2]int{s, d})
			}
		}
		b1 := graph.NewBuilder(n)
		for _, e := range edges {
			b1.AddEdge(e[0], e[1])
		}
		b2 := graph.NewBuilder(n)
		for i := len(edges) - 1; i >= 0; i-- {
			b2.AddEdge(edges[i][0], edges[i][1])
		}
		g1, g2 := b1.Build("a"), b2.Build("b")
		for _, name := range []string{"gcn", "gin", "gs-pl"} {
			m := MustModel(name, []int{6, 4}, seed)
			x := tensor.RandomMatrix(rand.New(rand.NewSource(seed+1)), n, 6, 0.5)
			o1, err1 := Forward(m, g1, x)
			o2, err2 := Forward(m, g2, x)
			if err1 != nil || err2 != nil {
				return false
			}
			if !o1[0].AllClose(o2[0], 1e-4, 1e-5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceKinds(t *testing.T) {
	acc := []float32{1, 2}
	ReduceSum.Accumulate(acc, []float32{3, -1})
	if acc[0] != 4 || acc[1] != 1 {
		t.Fatalf("sum acc: %v", acc)
	}
	mx := []float32{1, 5}
	ReduceMax.Accumulate(mx, []float32{3, 2})
	if mx[0] != 3 || mx[1] != 5 {
		t.Fatalf("max acc: %v", mx)
	}
	mean := ReduceMean.Finalize([]float32{6, 9}, 2, 3)
	if mean[0] != 2 || mean[1] != 3 {
		t.Fatalf("mean finalize: %v", mean)
	}
	sn := ReduceSumNorm.Finalize([]float32{6, 9, 3}, 2, 5)
	if sn[0] != 2 || sn[1] != 3 || len(sn) != 2 {
		t.Fatalf("sumnorm finalize: %v", sn)
	}
	if ReduceSumNorm.AccWidth(4) != 5 || ReduceSum.AccWidth(4) != 4 {
		t.Fatal("AccWidth wrong")
	}
	zero := ReduceMean.Finalize([]float32{1, 1}, 2, 0)
	if zero[0] != 1 {
		t.Fatalf("mean of degree-0 should not divide: %v", zero)
	}
	for _, k := range []ReduceKind{ReduceSum, ReduceMean, ReduceMax, ReduceSumNorm} {
		if k.String() == "" {
			t.Fatal("empty reduce name")
		}
	}
}

func TestMessagePassingClassification(t *testing.T) {
	gcn := MustModel("gcn", []int{8, 4}, 1)
	if gcn.MessagePassing() {
		t.Fatal("plain GCN is SpMM-representable")
	}
	for _, name := range []string{"ggcn", "gs-pl", "gat"} {
		m := MustModel(name, []int{8, 4}, 1)
		if !m.MessagePassing() {
			t.Fatalf("%s must require explicit message passing", name)
		}
	}
}

func TestWorkloadAccounting(t *testing.T) {
	p := graph.NewProfile("p", []int32{2, 3, 0, 5}) // 4 vertices, 10 edges
	m := MustModel("gcn", []int{8, 4}, 1)
	w := m.Layers[0].Work()
	agg := w.AggOps(p)
	// GCN layer: one MAC per edge per element (norm folded in): 10×8.
	if agg != 80 {
		t.Fatalf("AggOps = %d, want 80", agg)
	}
	// Update: 4 vertices × (8·4 + 4) = 144.
	if up := w.UpdateOps(p); up != 144 {
		t.Fatalf("UpdateOps = %d, want 144", up)
	}
	if w.TotalOps(p) != 224 {
		t.Fatalf("TotalOps = %d", w.TotalOps(p))
	}
}

func TestVolumeIntermediateShare(t *testing.T) {
	// Fig. 1c: intermediate data is a large share (≈50 %) of total GNN
	// data for GCN/GIN on citation-scale graphs with small hidden dims.
	d := graph.MustByName("cora")
	p := d.Profile()
	for _, name := range []string{"gcn", "gin"} {
		m := MustModel(name, d.FeatureDims, 1)
		vol := VolumeOf(m, p)
		share := float64(vol.IntermediateBytes) / float64(vol.Total())
		if share < 0.25 || share > 0.75 {
			t.Fatalf("%s intermediate share %.2f outside plausible band", name, share)
		}
		if vol.Total() <= 0 {
			t.Fatal("zero volume")
		}
	}
}

func TestGGCNGateBounds(t *testing.T) {
	// Gates are sigmoids, so |message| <= |value term| elementwise.
	rng := rand.New(rand.NewSource(11))
	l := newGGCNLayer(11, 4, 3, true)
	h := tensor.RandomMatrix(rng, 2, 4, 1)
	psrc, pdst := l.Prepare(h, 1)
	msg := make([]float32, 3)
	l.AccumulateEdge(msg, psrc.Row(0), pdst.Row(1), nil, EdgeContext{Src: 0, Dst: 1})
	for i := range msg {
		val := psrc.Row(0)[3+i]
		if math.Abs(float64(msg[i])) > math.Abs(float64(val))+1e-6 {
			t.Fatalf("gate amplified value: |%v| > |%v|", msg[i], val)
		}
	}
}

func TestGATAttentionNormalized(t *testing.T) {
	// GAT weights are a softmax: aggregated output must be a convex
	// combination of the transformed neighbor features. Verify on a star
	// whose leaves all carry identical features: the hub output equals
	// the (activated) transform of that shared feature.
	g := graph.Star(4)
	m := MustModel("gat", []int{3, 3}, 9)
	l := m.Layers[0].(*gatLayer)
	x := tensor.NewMatrix(4, 3)
	leaf := []float32{0.3, -0.2, 0.5}
	for v := 1; v < 4; v++ {
		copy(x.Row(v), leaf)
	}
	outs, err := Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.VecMat(leaf, l.w)
	got := outs[0].Row(0)
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-4 {
			t.Fatalf("GAT convexity violated at %d: %v vs %v", i, got[i], want[i])
		}
	}
}
