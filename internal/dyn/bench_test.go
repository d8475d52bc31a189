package dyn

import (
	"math"
	"math/rand"
	"testing"
	"time"

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

// BenchmarkDynMutate prices a write together with the read after it: each
// iteration applies one 64-op batch, 32 inserts and 32 removals of live
// edges drawn from an edge-multiset mirror as perfbench's resident-rw draws
// them, then takes the View that the next read takes. apply-ms/op and
// view-ms/op split ns/op between the two.
func BenchmarkDynMutate(b *testing.B) {
	for _, tc := range []struct {
		name string
		base *graph.Graph
	}{
		{"rmat12", graph.RMAT(12, 65536, 5)},
		{"reddit", graph.MustByName("reddit").Build()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			d, err := New(tc.base, gnn.RandomFeatures(tc.base, 16, 9), Config{})
			if err != nil {
				b.Fatal(err)
			}
			batches := mirrorBatches(tc.base, b.N)
			var apply, view time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for _, batch := range batches {
				start := time.Now()
				if err := d.Apply(batch); err != nil {
					b.Fatal(err)
				}
				applied := time.Now()
				if _, _, err := d.View(); err != nil {
					b.Fatal(err)
				}
				apply += applied.Sub(start)
				view += time.Since(applied)
			}
			b.ReportMetric(apply.Seconds()*1e3/float64(b.N), "apply-ms/op")
			b.ReportMetric(view.Seconds()*1e3/float64(b.N), "view-ms/op")
		})
	}
}

// mirrorBatches draws count batches of alternating uniform inserts and
// removals of uniformly chosen live edges, tracking the edge multiset in a
// mirror so that every removal names an edge the graph holds when it lands.
func mirrorBatches(g *graph.Graph, count int) []Batch {
	rng := rand.New(rand.NewSource(1))
	var mirror [][2]int32 // (src, dst)
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.InNeighbors(v) {
			mirror = append(mirror, [2]int32{u, int32(v)})
		}
	}
	nv := int32(g.NumVertices())
	batches := make([]Batch, count)
	for i := range batches {
		ops := make([]Mutation, 64)
		for j := range ops {
			if j%2 == 0 {
				src, dst := rng.Int31n(nv), rng.Int31n(nv)
				mirror = append(mirror, [2]int32{src, dst})
				ops[j] = Mutation{Op: OpAddEdge, Src: src, Dst: dst}
				continue
			}
			k := rng.Intn(len(mirror))
			e := mirror[k]
			mirror[k] = mirror[len(mirror)-1]
			mirror = mirror[:len(mirror)-1]
			ops[j] = Mutation{Op: OpRemoveEdge, Src: e[0], Dst: e[1]}
		}
		batches[i] = Batch{Ops: ops}
	}
	return batches
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
