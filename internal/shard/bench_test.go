package shard

// Sharded-serving benchmarks at Reddit scale (the paper's largest Table II
// workload, materialized at its default build scale: ~931 vertices, ~458k
// edges, dims 602→64→41). BenchmarkShardPass drives the real HTTP data
// plane — front-tier pool, wire codec, halo exchange, worker forward — at 1,
// 2, and 4 shards in fp32 and int8, against BenchmarkShardLocal's direct
// single-session forward.
//
// Wall-clock speedup on a single-core container is bounded by the serial
// compute (the shards time-slice one CPU), so each sharded benchmark also
// reports the NoC-costed predicted speedup from EstimateComm — the number a
// multi-core or multi-node deployment is modeled to reach, as the custom
// metric predicted-speedup. EXPERIMENTS.md ("Sharded serving — predicted vs
// measured") compares the two.

import (
	"context"
	"net/http/httptest"
	"strconv"
	"testing"

	"scale"
	"scale/internal/graph"
	"scale/internal/noc"
	"scale/internal/tensor"
)

func benchWorkload(b *testing.B) (*graph.Graph, []int, *tensor.Matrix) {
	b.Helper()
	d := graph.MustByName("reddit")
	g := d.Build()
	dims := d.FeatureDims
	x := tensor.NewMatrix(g.NumVertices(), dims[0])
	for i := range x.Data {
		x.Data[i] = float32(i%31)*0.11 - 1.6
	}
	return g, dims, x
}

func benchSim(b *testing.B) *scale.Simulator {
	b.Helper()
	sim, err := scale.New(scale.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// BenchmarkShardLocal is the unsharded baseline: one session, layer-by-layer
// forward over the full graph, no HTTP.
func BenchmarkShardLocal(b *testing.B) {
	sim := benchSim(b)
	g, dims, x := benchWorkload(b)
	for _, prec := range []string{"fp32", "int8"} {
		b.Run(prec, func(b *testing.B) {
			sess, err := sim.NewSessionPrecision("gcn", dims, prec)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := x
				for li := 0; li < sess.NumLayers(); li++ {
					h, err = sess.ForwardLayerCSR(context.Background(), li, g, h, nil, 1)
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkShardPass is one full sharded inference pass through the HTTP
// data plane at k shards.
func BenchmarkShardPass(b *testing.B) {
	sim := benchSim(b)
	g, dims, x := benchWorkload(b)
	t1, err := sim.Simulate("gcn", "reddit")
	if err != nil {
		b.Fatal(err)
	}
	for _, prec := range []string{"fp32", "int8"} {
		for _, k := range []int{1, 2, 4} {
			b.Run(prec+"/k="+strconv.Itoa(k), func(b *testing.B) {
				addrs := make([]string, k)
				for i := range addrs {
					w := NewWorker(WorkerConfig{Sim: sim})
					srv := httptest.NewServer(w.Handler())
					b.Cleanup(srv.Close)
					b.Cleanup(w.Close)
					addrs[i] = srv.URL
				}
				pool, err := NewPool(PoolConfig{Workers: addrs, Parts: k})
				if err != nil {
					b.Fatal(err)
				}
				spec := SessionSpec{Model: "gcn", Dims: dims, Precision: prec}
				var plan *Plan
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, p, err := pool.Run(context.Background(), spec, g, x)
					if err != nil {
						b.Fatal(err)
					}
					plan = p
				}
				b.StopTimer()
				// SCSH layer frames carry halo rows as float32 in both
				// tiers, so int8 passes move 4 bytes per element too.
				est, err := EstimateComm(plan, dims, 4, noc.Ring, t1.Cycles)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(est.PredictedSpeedup, "predicted-speedup")
				b.ReportMetric(float64(est.HaloBytes), "halo-bytes")
			})
		}
	}
}
