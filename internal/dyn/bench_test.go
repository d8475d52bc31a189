package dyn

import (
	"math"
	"testing"

	"scale/internal/gnn"
	"scale/internal/graph"
)

// benchGraph builds a dynamic RMAT graph sized so sampled-vs-full latency
// shows the fanout cap doing real work on power-law hubs.
func benchGraph(b *testing.B, dim int) *Graph {
	b.Helper()
	base := graph.RMAT(12, 65536, 5) // 4096 vertices, power-law degrees
	x := gnn.RandomFeatures(base, dim, 9)
	d, err := New(base, x, Config{CompactThreshold: math.Inf(1)})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkDynMutate measures mutation throughput through Apply (one
// 64-op batch per iteration: alternating inserts and removals that cancel,
// so the graph does not grow without bound across iterations).
func BenchmarkDynMutate(b *testing.B) {
	d := benchGraph(b, 16)
	n := int32(d.NumVertices())
	ops := make([]Mutation, 0, 64)
	for i := int32(0); i < 32; i++ {
		src, dst := i%n, (i*7+1)%n
		ops = append(ops,
			Mutation{Op: OpAddEdge, Src: src, Dst: dst},
			Mutation{Op: OpRemoveEdge, Src: src, Dst: dst})
	}
	batch := Batch{Ops: ops}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(64*float64(b.N)/b.Elapsed().Seconds(), "mutations/s")
}

func benchInfer(b *testing.B, fanout int) {
	d := benchGraph(b, 32)
	model, err := gnn.NewModel("gcn", []int{32, 32, 16}, 3)
	if err != nil {
		b.Fatal(err)
	}
	full, x, err := d.View()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs := []*graph.Graph{full, full}
		if fanout > 0 {
			gs, err = Sampler{Fanout: fanout, Seed: uint64(i)}.Sample(full, 2)
			if err != nil {
				b.Fatal(err)
			}
		}
		h := x
		for li, l := range model.Layers {
			h, err = gnn.ForwardLayerParallel(l, gs[li], h, 1)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDynFullInfer is the unsampled baseline for the sampled variant.
func BenchmarkDynFullInfer(b *testing.B) { benchInfer(b, 0) }

// BenchmarkDynSampledInfer runs the same forward with a fanout-8 cap
// (sampling cost included — the win is aggregation work on hub rows).
func BenchmarkDynSampledInfer(b *testing.B) { benchInfer(b, 8) }
