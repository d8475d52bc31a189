package core

import (
	"fmt"
	"math/rand"
	"testing"

	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/tensor"
)

// Simulator throughput: one full 2-layer GCN/Cora timing run.
func BenchmarkRunGCNCora(b *testing.B) {
	s := MustNew(DefaultConfig())
	d := graph.MustByName("cora")
	m := gnn.MustModel("gcn", d.FeatureDims, 1)
	p := d.Profile()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(m, p); err != nil {
			b.Fatal(err)
		}
	}
}

// The heavy case: full-size Reddit profile (114M edges as degrees).
func BenchmarkRunGCNReddit(b *testing.B) {
	s := MustNew(DefaultConfig())
	d := graph.MustByName("reddit")
	m := gnn.MustModel("gcn", d.FeatureDims, 1)
	p := d.Profile()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(m, p); err != nil {
			b.Fatal(err)
		}
	}
}

// Functional dataflow execution on a materialized graph.
func BenchmarkForwardFunctional(b *testing.B) {
	s := MustNew(DefaultConfig())
	g := graph.ErdosRenyi(2000, 8000, 1)
	m := gnn.MustModel("gcn", []int{64, 16, 4}, 1)
	x := gnn.RandomFeatures(g, 64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Forward(m, g, x); err != nil {
			b.Fatal(err)
		}
	}
}

// Functional dataflow on full-size Cora (2-layer GCN, Table II dims).
func BenchmarkForwardFunctionalCora(b *testing.B) {
	s := MustNew(DefaultConfig())
	d := graph.MustByName("cora")
	g := d.Build()
	m := gnn.MustModel("gcn", d.FeatureDims, 1)
	x := gnn.RandomFeatures(g, d.FeatureDims[0], 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Forward(m, g, x); err != nil {
			b.Fatal(err)
		}
	}
}

// Functional dataflow at Reddit scale: the dataset's default
// degree-preserving build (average degree 492) with the real 602→64→41
// feature dims — the acceptance benchmark for the kernel layer.
func BenchmarkForwardFunctionalReddit(b *testing.B) {
	s := MustNew(DefaultConfig())
	d := graph.MustByName("reddit")
	g := d.Build()
	m := gnn.MustModel("gcn", d.FeatureDims, 1)
	x := gnn.RandomFeatures(g, d.FeatureDims[0], 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Forward(m, g, x); err != nil {
			b.Fatal(err)
		}
	}
}

// Serial vs 8-worker group-parallel functional execution at Reddit scale.
// On a single-core host both degenerate to the same wall clock; on
// multi-core hardware the spread is the ring-level speedup. Outputs are
// byte-identical by construction (pinned by TestForwardParallelBitIdentical).
func BenchmarkForwardFunctionalRedditSerial(b *testing.B) {
	benchForwardRedditWorkers(b, 1, false)
}

func BenchmarkForwardFunctionalRedditParallel8(b *testing.B) {
	benchForwardRedditWorkers(b, 8, false)
}

// BenchmarkForwardFunctionalRedditInt8Serial is the serial pass on the int8
// tier: beside BenchmarkForwardFunctionalRedditSerial it compares the two
// tiers without the run-to-run spread a GOMAXPROCS fan-out adds.
func BenchmarkForwardFunctionalRedditInt8Serial(b *testing.B) {
	benchForwardRedditWorkers(b, 1, true)
}

func benchForwardRedditWorkers(b *testing.B, workers int, int8 bool) {
	s := MustNew(DefaultConfig())
	d := graph.MustByName("reddit")
	g := d.Build()
	m := gnn.MustModel("gcn", d.FeatureDims, 1)
	if int8 {
		m = quantizedModel(b, "gcn", d.FeatureDims, 1)
	}
	x := gnn.RandomFeatures(g, d.FeatureDims[0], 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ForwardParallel(m, g, x, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// The int8 tier at Reddit scale: the same workload as
// BenchmarkForwardFunctionalReddit on the quantized execution path (int8
// source rows through the integer reduce chains, int8 GEMV updates). It
// times one quantized forward pass; beside BenchmarkForwardFunctionalReddit
// it gives the int8-to-fp32 time ratio on the host that runs both.
func BenchmarkForwardFunctionalRedditInt8(b *testing.B) {
	s := MustNew(DefaultConfig())
	d := graph.MustByName("reddit")
	g := d.Build()
	m := quantizedModel(b, "gcn", d.FeatureDims, 1)
	x := gnn.RandomFeatures(g, d.FeatureDims[0], 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Forward(m, g, x); err != nil {
			b.Fatal(err)
		}
	}
}

// The int8 tier on full-size Cora (sparser, update-dominated).
func BenchmarkForwardFunctionalCoraInt8(b *testing.B) {
	s := MustNew(DefaultConfig())
	d := graph.MustByName("cora")
	g := d.Build()
	m := quantizedModel(b, "gcn", d.FeatureDims, 1)
	x := gnn.RandomFeatures(g, d.FeatureDims[0], 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Forward(m, g, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregationOrder times one serial layer's aggregation and update
// in both orders with the executor's kernels of each tier, over the Table II
// layer shapes (and small-open's 16→32→8) at a Reddit-like and a Cora-like
// average in-degree. On fp32:
//
//   - natural: per vertex, AxpyChain over its in-neighbours' input rows
//     (in wide), then VecMatInto of the sum through W;
//   - narrow: VecMatInto of every input row through W (the executor's
//     prepare, tensor.ParallelMatMulInto at one worker), then per vertex
//     AxpyChain over the out-wide rows and the update's copy.
//
// On int8 each order first quantizes its chain input under one shared scale
// (tensor.ParallelQuantizeScaledInto), and every chain is a tensor.QChain
// dequantized once per vertex:
//
//   - natural: the input rows are the chain input; per vertex the in-wide
//     sum is quantized and multiplied through W by tensor.QGemvInto;
//   - narrow: every input row is quantized and multiplied through W by
//     tensor.QGemvInto (gnn's int8 transform), the out-wide rows are the
//     chain input, and the update copies the sum.
//
// Both orders run |V| GEMVs of in×out; only the chain's width differs.
// Every vertex has d distinct in-neighbours drawn uniformly, and features
// are dense. The 256-vertex Nell slice runs at the Cora-like degree only:
// a simple graph on 256 vertices cannot reach 477 (Nell's own average
// in-degree is about 4). gnn's aggregation-order rule (out < in), one
// predicate for both tiers, is the simplest predicate on (in, out) that
// picks the faster order in every cell where the two orders' runs do not
// overlap (EXPERIMENTS.md, "Aggregate at the narrower width" and "int8 at
// the narrower width").
func BenchmarkAggregationOrder(b *testing.B) {
	shapes := []struct{ n, in, out int }{
		{931, 602, 64}, {931, 64, 41}, {931, 1433, 16}, {931, 3703, 16},
		{931, 500, 16}, {931, 16, 7}, {931, 16, 6}, {931, 16, 3},
		{931, 64, 210}, {931, 16, 32}, {931, 32, 8},
		{256, 61278, 64}, // Nell's input layer on a 256-vertex slice
	}
	for _, s := range shapes {
		rng := rand.New(rand.NewSource(int64(s.in*s.out + s.n)))
		h := tensor.RandomMatrix(rng, s.n, s.in, 0.5)
		w := tensor.GlorotMatrix(rng, s.in, s.out)
		for _, deg := range []struct {
			name string
			d    int
		}{{"reddit", 477}, {"cora", 4}} {
			if deg.d >= s.n {
				continue
			}
			b.Run(fmt.Sprintf("%s/%dx%d", deg.name, s.in, s.out), func(b *testing.B) {
				benchAggregationOrder(b, rng, h, w, deg.d)
			})
		}
	}
}

func benchAggregationOrder(b *testing.B, rng *rand.Rand, h, w *tensor.Matrix, deg int) {
	n, in, out := h.Rows, w.Rows, w.Cols
	srcs := make([]int32, n*deg)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for v := 0; v < n; v++ {
		for i := 0; i < deg; i++ { // partial Fisher–Yates: deg distinct sources
			j := i + rng.Intn(n-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		copy(srcs[v*deg:], perm[:deg])
	}
	coefs := make([]float32, deg)
	for i := range coefs {
		coefs[i] = 1 / float32(deg)
	}
	dst := tensor.NewMatrix(n, out)
	z := tensor.NewMatrix(n, out)
	acc := make([]float32, max(in, out))
	chain := func(acc []float32, rows *tensor.Matrix, v int) {
		for i := range acc {
			acc[i] = 0
		}
		tensor.AxpyChain(acc, rows, srcs[v*deg:(v+1)*deg], coefs)
	}
	b.Run("natural", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for v := 0; v < n; v++ {
				chain(acc[:in], h, v)
				tensor.VecMatInto(dst.Row(v), acc[:in], w)
			}
		}
	})
	b.Run("narrow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.ParallelMatMulInto(z, h, w, 1)
			for v := 0; v < n; v++ {
				chain(acc[:out], z, v)
				copy(dst.Row(v), acc[:out])
			}
		}
	})

	wT, err := tensor.QuantizeTransposed(w)
	if err != nil {
		b.Fatal(err)
	}
	ones := make([]float32, n) // a source coefficient of 1, the mean's 1/d per vertex
	for i := range ones {
		ones[i] = 1
	}
	qrow := make([]int8, in)
	// qchain leaves vertex v's dequantized chain over q's rows in acc.
	qchain := func(acc []float32, q *tensor.QSumMatrix, acc32 []int32, swar []uint64, v int) {
		for i := range acc32 {
			acc32[i] = 0
		}
		tensor.QChain(acc32, swar, q, srcs[v*deg:(v+1)*deg])
		c := q.Scale / float32(deg)
		for i := range acc {
			acc[i] = c * float32(acc32[i])
		}
	}
	// qgemv writes quant(x)·wT into out, as an int8 update or transform.
	qgemv := func(b *testing.B, out, x []float32) {
		s, err := tensor.QuantizeRowInto(qrow, x)
		if err != nil {
			b.Fatal(err)
		}
		tensor.QGemvInto(out, qrow, s, wT)
	}
	b.Run("int8/natural", func(b *testing.B) {
		q := tensor.NewQSumMatrix(n, in)
		acc32, swar := make([]int32, q.Stride), make([]uint64, q.Stride/4)
		for i := 0; i < b.N; i++ {
			if err := tensor.ParallelQuantizeScaledInto(q, h, ones, 1); err != nil {
				b.Fatal(err)
			}
			for v := 0; v < n; v++ {
				qchain(acc[:in], q, acc32, swar, v)
				qgemv(b, dst.Row(v), acc[:in])
			}
		}
	})
	b.Run("int8/narrow", func(b *testing.B) {
		q := tensor.NewQSumMatrix(n, out)
		acc32, swar := make([]int32, q.Stride), make([]uint64, q.Stride/4)
		for i := 0; i < b.N; i++ {
			for v := 0; v < n; v++ {
				qgemv(b, z.Row(v), h.Row(v))
			}
			if err := tensor.ParallelQuantizeScaledInto(q, z, ones, 1); err != nil {
				b.Fatal(err)
			}
			for v := 0; v < n; v++ {
				qchain(acc[:out], q, acc32, swar, v)
				copy(dst.Row(v), acc[:out])
			}
		}
	})
}
