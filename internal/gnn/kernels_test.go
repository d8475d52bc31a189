package gnn

import (
	"math"
	"math/rand"
	"testing"

	"scale/internal/tensor"
)

// Every layer's fused/parallel kernels must be bit-identical to the direct
// Eq. 1 formulations in oracle_test.go: the executors only ever drive the
// kernels, so any drift would silently decouple them from the documented
// Eq. 1–2 semantics.

func zooLayers(t *testing.T) map[string]Layer {
	t.Helper()
	layers := make(map[string]Layer)
	for _, name := range AllModelNames() {
		m := MustModel(name, []int{12, 8, 4}, 5)
		layers[name+"/hidden"] = m.Layers[0]
		layers[name+"/last"] = m.Layers[1]
	}
	return layers
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32() - 0.5
	}
	return s
}

func TestAccumulateEdgeMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := testGraph()
	for name, l := range zooLayers(t) {
		h := tensor.RandomMatrix(rng, g.NumVertices(), l.InDim(), 0.5)
		psrc, pdst := l.Prepare(h, 1)
		width := l.Reduce().AccWidth(l.MsgDim())
		acc := randSlice(rng, width)
		want := append([]float32(nil), acc...)
		msg := make([]float32, width)
		for v := 0; v < 8; v++ {
			nbrs := g.InNeighbors(v)
			var pdstRow []float32
			if pdst != nil {
				pdstRow = pdst.Row(v)
			}
			for _, u := range nbrs {
				ctx := EdgeContext{Src: int(u), Dst: v, SrcDeg: g.InDegree(int(u)), DstDeg: len(nbrs)}
				l.AccumulateEdge(acc, psrc.Row(int(u)), pdstRow, msg, ctx)
				refMessage(l, msg, psrc.Row(int(u)), pdstRow, ctx)
				l.Reduce().Accumulate(want, msg)
			}
		}
		for i, v := range acc {
			if v != want[i] {
				t.Fatalf("%s: fused acc[%d] = %v, unfused = %v", name, i, v, want[i])
			}
		}
	}
}

// For the linear-sum layers the executor replaces AccumulateEdge with a
// float32 chain over rows it has scaled by SrcCoef(srcDeg) once per layer:
// AccumulateEdge must add exactly that rounded product, bit for bit, at
// every source degree, including the floor-at-1 degree 0 and one large
// degree, and whatever the destination degree (DstCoef applies once per
// vertex, after the chain).
func TestSrcCoefMatchesAccumulateEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	degrees := []int{0, 1, 2, 3, 4973}
	zoo := zooLayers(t)
	for _, name := range []string{"gcn", "gin", "gs-mean"} {
		for _, l := range []Layer{zoo[name+"/hidden"], zoo[name+"/last"]} {
			lin, ok := l.(LinearAggregator)
			if !ok {
				t.Fatalf("%s: expected LinearAggregator", name)
			}
			psrc := randSlice(rng, l.MsgDim())
			folded := make([]float32, len(psrc))
			for _, du := range degrees {
				c := lin.SrcCoef(du)
				for i, v := range psrc {
					folded[i] = c * v
				}
				for _, dv := range degrees {
					acc := randSlice(rng, l.Reduce().AccWidth(l.MsgDim()))
					want := append([]float32(nil), acc...)
					ctx := EdgeContext{Src: 0, Dst: 1, SrcDeg: du, DstDeg: dv}
					l.AccumulateEdge(want, psrc, nil, nil, ctx)
					for i, v := range folded {
						acc[i] += v
					}
					for i, v := range acc {
						if math.Float32bits(v) != math.Float32bits(want[i]) {
							t.Fatalf("%s deg %d->%d: folded-row chain acc[%d] = %v, AccumulateEdge = %v",
								name, du, dv, i, v, want[i])
						}
					}
				}
			}
		}
	}
}

// Each layer's fused/parallel Prepare must be bit-identical to the serial
// one-pass-per-matrix formulation for every worker count.
func TestPrepareLayerMatchesSerialPair(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for name, l := range zooLayers(t) {
		h := tensor.RandomMatrix(rng, 50, l.InDim(), 0.5)
		wantSrc, wantDst := refPrepare(l, h)
		for _, workers := range []int{1, 3, 8} {
			psrc, pdst := l.Prepare(h, workers)
			if !psrc.Equal(wantSrc) {
				t.Fatalf("%s workers=%d: prepared sources diverge", name, workers)
			}
			if (pdst == nil) != (wantDst == nil) {
				t.Fatalf("%s workers=%d: pdst nil-ness diverges", name, workers)
			}
			if pdst != nil && !pdst.Equal(wantDst) {
				t.Fatalf("%s workers=%d: prepared dests diverge", name, workers)
			}
		}
	}
}

// The row-parallel reference executor is bit-identical to the serial sweep
// for every model in the zoo.
func TestForwardParallelBitIdenticalReference(t *testing.T) {
	g := testGraph()
	for _, name := range AllModelNames() {
		m := MustModel(name, []int{10, 6, 3}, 2)
		x := RandomFeatures(g, 10, 3)
		serial, err := ForwardParallel(m, g, x, 1)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, workers := range []int{2, 8} {
			par, err := ForwardParallel(m, g, x, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			for li := range serial {
				if !par[li].Equal(serial[li]) {
					t.Fatalf("%s workers=%d layer %d: parallel output diverges bit-wise (max |Δ| = %g)",
						name, workers, li, par[li].MaxAbsDiff(serial[li]))
				}
			}
		}
	}
}

// A custom layer without a fused Accumulate runs through the kernel-driven
// executor via the Message fallback, and one with Accumulate set uses it;
// both give the same bits.
func TestCustomLayerKernelFallbacks(t *testing.T) {
	base := CustomSpec{
		Name: "fallback", InDim: 6, MsgDim: 6, OutDim: 6,
		Reduce: ReduceSum,
		UpdateInto: func(dst, hself, agg []float32) {
			for i := range dst {
				dst[i] = hself[i] + agg[i]
			}
		},
	}
	fused := base
	fused.Name = "fused"
	fused.Accumulate = func(acc, psrc, pdst []float32, ctx EdgeContext) {
		for i, v := range psrc {
			acc[i] += v
		}
	}

	g := testGraph()
	x := RandomFeatures(g, 6, 4)
	var outs [][]*tensor.Matrix
	for _, spec := range []CustomSpec{base, fused} {
		l, err := NewCustomLayer(spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := CustomModel(spec.Name, l)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Forward(m, g, x)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		outs = append(outs, out)
	}
	if !outs[0][0].Equal(outs[1][0]) {
		t.Fatal("fused custom kernels diverge from the Message fallback")
	}
}
