package shard

import (
	"errors"
	"testing"

	"scale/internal/fault"
	"scale/internal/graph"
)

func TestPartitionValidation(t *testing.T) {
	g := graph.CommunityGraph(60, 3, 6, 1)
	for _, k := range []int{0, -2} {
		if _, err := PartitionGraph(g, k); !errors.Is(err, fault.ErrBadConfig) {
			t.Fatalf("k=%d: err = %v, want ErrBadConfig", k, err)
		}
	}
	if _, err := PartitionGraph(graph.NewBuilder(0).Build("empty"), 2); !errors.Is(err, fault.ErrBadGraph) {
		t.Fatalf("empty graph: err = %v, want ErrBadGraph", err)
	}
	// k > |V| degrades to a |V|-way split instead of erroring.
	tiny := graph.NewBuilder(3)
	tiny.AddEdge(0, 1)
	tiny.AddEdge(1, 2)
	plan, err := PartitionGraph(tiny.Build("tiny"), 16)
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != 3 {
		t.Fatalf("k clamped to %d, want 3", plan.K)
	}
}

// Every vertex must be owned by exactly one shard, local ids must be the
// monotone renumbering of ascending global ids, and each owned vertex's local
// in-neighbors must map back to exactly the global adjacency, in order — the
// property the fp32 bit-identity guarantee rests on.
func TestPartitionCoverageAndAdjacency(t *testing.T) {
	g := graph.CommunityGraph(400, 8, 12, 5)
	for _, k := range []int{1, 2, 4, 7} {
		plan, err := PartitionGraph(g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		ownedBy := make([]int, g.NumVertices())
		for i := range ownedBy {
			ownedBy[i] = -1
		}
		for si := range plan.Shards {
			sub := &plan.Shards[si]
			for li := 1; li < len(sub.Global); li++ {
				if sub.Global[li] <= sub.Global[li-1] {
					t.Fatalf("k=%d shard %d: Global not strictly ascending at %d", k, si, li)
				}
			}
			if len(sub.Owned)+len(sub.Halo) != len(sub.Global) {
				t.Fatalf("k=%d shard %d: owned %d + halo %d != members %d",
					k, si, len(sub.Owned), len(sub.Halo), len(sub.Global))
			}
			for _, lo := range sub.Owned {
				gv := int(sub.Global[lo])
				if ownedBy[gv] != -1 {
					t.Fatalf("k=%d: vertex %d owned by shards %d and %d", k, gv, ownedBy[gv], si)
				}
				ownedBy[gv] = si
				if int(plan.Assign[gv]) != si {
					t.Fatalf("k=%d: Assign[%d]=%d but shard %d owns it", k, gv, plan.Assign[gv], si)
				}
				// Local adjacency must be the global adjacency, renumbered,
				// in the same order.
				want := g.InNeighbors(gv)
				got := sub.Graph.InNeighbors(int(lo))
				if len(got) != len(want) {
					t.Fatalf("k=%d vertex %d: %d local in-neighbors, want %d", k, gv, len(got), len(want))
				}
				for i, lu := range got {
					if sub.Global[lu] != want[i] {
						t.Fatalf("k=%d vertex %d: in-neighbor %d is global %d, want %d",
							k, gv, i, sub.Global[lu], want[i])
					}
				}
				if sub.Degrees[lo] != int32(len(want)) {
					t.Fatalf("k=%d vertex %d: degree %d, want %d", k, gv, sub.Degrees[lo], len(want))
				}
			}
			for _, lh := range sub.Halo {
				if got := sub.Graph.InDegree(int(lh)); got != 0 {
					t.Fatalf("k=%d shard %d: halo vertex has %d local in-edges", k, si, got)
				}
				gv := sub.Global[lh]
				if int(plan.Assign[gv]) == si {
					t.Fatalf("k=%d shard %d: halo vertex %d is locally owned", k, si, gv)
				}
			}
		}
		for gv, si := range ownedBy {
			if si == -1 {
				t.Fatalf("k=%d: vertex %d owned by no shard", k, gv)
			}
		}
	}
}

// Affinity-guided packing of a community graph must beat a hash-style
// round-robin assignment on edge cut, and the balance cap must hold.
func TestPartitionQuality(t *testing.T) {
	g := graph.CommunityGraph(600, 12, 10, 9)
	plan, err := PartitionGraph(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.EdgeCut < 0 || plan.EdgeCut > 1 {
		t.Fatalf("edge cut %v outside [0,1]", plan.EdgeCut)
	}
	if plan.Balance < 1 || plan.Balance > 1.25 {
		t.Fatalf("balance %v outside [1, 1.25]", plan.Balance)
	}
	// Round-robin baseline cut.
	var rrCut, total int64
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.InNeighbors(v) {
			total++
			if int(u)%4 != v%4 {
				rrCut++
			}
		}
	}
	rr := float64(rrCut) / float64(total)
	if plan.EdgeCut >= rr {
		t.Fatalf("affinity cut %.3f not better than round-robin %.3f", plan.EdgeCut, rr)
	}

	// K=1 is the degenerate whole-graph shard: no cut, no halo.
	one, err := PartitionGraph(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.EdgeCut != 0 || one.HaloVertices != 0 || one.Balance != 1 {
		t.Fatalf("K=1: cut=%v halo=%d balance=%v, want 0/0/1", one.EdgeCut, one.HaloVertices, one.Balance)
	}
	if len(one.Shards[0].Owned) != g.NumVertices() {
		t.Fatalf("K=1 shard owns %d of %d vertices", len(one.Shards[0].Owned), g.NumVertices())
	}
}
