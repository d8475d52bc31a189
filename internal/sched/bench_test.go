package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"scale/internal/graph"
)

// The runtime scheduling cost the §IV-B model bounds: one batch of 1024
// vertices into 512 tasks and 32 groups with Algorithm 1.
func BenchmarkScheduleDVSBatch(b *testing.B) {
	p := graph.MustByName("pubmed").Profile()
	batch := AllVertices(1024)
	cfg := Config{NumTasks: 512, NumGroups: 32, Policy: DegreeVertexAware}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(p.Degrees, batch, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleVertexAwareFullGraph(b *testing.B) {
	p := graph.MustByName("pubmed").Profile()
	all := AllVertices(p.NumVertices())
	cfg := Config{NumTasks: 512, NumGroups: 512, Policy: VertexAware}
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(p.Degrees, all, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// redditScaleProfile is a Reddit-scale synthetic workload: ~233k vertices,
// power-law skew, full Table II edge count.
func redditScaleProfile() *graph.Profile {
	return graph.SyntheticProfile("reddit-scale", 232965, 114615892, 0.8, 42)
}

// One 16K-vertex batch of the Reddit-scale profile through Algorithm 1 — the
// hot call of a full-size timing run.
func BenchmarkScheduleDVSRedditBatch(b *testing.B) {
	p := redditScaleProfile()
	batch := AllVertices(16384)
	cfg := Config{NumTasks: 512, NumGroups: 32, Policy: DegreeVertexAware}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(p.Degrees, batch, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// The whole Reddit-scale vertex set scheduled batch by batch (one full
// simulated layer's scheduling work).
func BenchmarkScheduleDVSRedditFullLayer(b *testing.B) {
	p := redditScaleProfile()
	cfg := Config{NumTasks: 512, NumGroups: 32, Policy: DegreeVertexAware}
	batches := BatchesOf(AllVertices(p.NumVertices()), 16384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, vb := range batches {
			if _, err := Schedule(p.Degrees, vb, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The same batch through a reused compact Scheduler — the steady-state hot
// path the timing engine actually runs (counting sort + recycled scratch,
// no vertex-id materialization). Expect ~0 allocs/op.
func BenchmarkScheduleCompactRedditBatch(b *testing.B) {
	p := redditScaleProfile()
	batch := AllVertices(16384)
	s, err := NewScheduler(Config{NumTasks: 512, NumGroups: 32, Policy: DegreeVertexAware}, false)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Schedule(p.Degrees, batch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(p.Degrees, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// The full Reddit-scale layer through a reused compact Scheduler.
func BenchmarkScheduleCompactRedditFullLayer(b *testing.B) {
	p := redditScaleProfile()
	s, err := NewScheduler(Config{NumTasks: 512, NumGroups: 32, Policy: DegreeVertexAware}, false)
	if err != nil {
		b.Fatal(err)
	}
	batches := BatchesOf(AllVertices(p.NumVertices()), 16384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, vb := range batches {
			if _, err := s.Schedule(p.Degrees, vb); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchScheduler times one batch through a reused materializing Scheduler,
// the path the functional executor runs once per layer.
func benchScheduler(b *testing.B, degrees, batch []int32, cfg Config) {
	s, err := NewScheduler(cfg, true)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Schedule(degrees, batch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(degrees, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// A small-open request's layer: 72 vertices with 288 uniformly random
// in-edges into 512 tasks. For the 16→32→8 models Eq. 3 gives both gcn
// layers and gin's second 2-PE rings (G_n = 256) and gin's first 4-PE rings
// (G_n = 128). Nearly every vertex is above the first-fit target of 1 edge.
func BenchmarkScheduleSmallBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(72))
	degrees := make([]int32, 72)
	for e := 0; e < 288; e++ {
		degrees[rng.Intn(len(degrees))]++
	}
	batch := AllVertices(len(degrees))
	for _, groups := range []int{256, 128} {
		b.Run(fmt.Sprintf("G%d", groups), func(b *testing.B) {
			benchScheduler(b, degrees, batch, Config{NumTasks: 512, NumGroups: groups, Policy: DegreeVertexAware})
		})
	}
}

// The 931-vertex reddit build resident-rw serves, one batch into 512 tasks
// at the rings Eq. 3 picks for its 602→64→41 layers: G_n = 4 and 64.
func BenchmarkScheduleRedditScaled(b *testing.B) {
	g := graph.MustByName("reddit").Build()
	degrees := g.Degrees()
	batch := AllVertices(g.NumVertices())
	for _, groups := range []int{4, 64} {
		b.Run(fmt.Sprintf("G%d", groups), func(b *testing.B) {
			benchScheduler(b, degrees, batch, Config{NumTasks: 512, NumGroups: groups, Policy: DegreeVertexAware})
		})
	}
}
