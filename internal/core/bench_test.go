package core

import (
	"testing"

	"scale/internal/gnn"
	"scale/internal/graph"
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
	benchForwardRedditWorkers(b, 1)
}

func BenchmarkForwardFunctionalRedditParallel8(b *testing.B) {
	benchForwardRedditWorkers(b, 8)
}

func benchForwardRedditWorkers(b *testing.B, workers int) {
	s := MustNew(DefaultConfig())
	d := graph.MustByName("reddit")
	g := d.Build()
	m := gnn.MustModel("gcn", d.FeatureDims, 1)
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
