// Package shard is the horizontal-scaling tier of the SCALE reproduction:
// it partitions a graph across N shard workers, serves partial forward
// passes over HTTP with halo exchange between layers, and costs the
// cross-shard traffic with the same internal/noc + internal/mem models the
// simulator uses on chip — so the system predicts the performance of its own
// serving topology the way it predicts on-chip aggregation (the model-based
// communication characterization of Guirado et al., PAPERS.md).
//
// The pieces (DESIGN.md §4k):
//
//   - PartitionGraph: an edge-cut-minimizing partitioner built on
//     graph.Islandize — islands are greedily packed onto shards by edge
//     affinity under a balance cap, and each shard gets a local CSR over its
//     owned vertices plus halo copies of their remote in-neighbors.
//   - Worker: an HTTP shard worker wrapping scale.Session that advances one
//     layer per call (load → layer× → finish) with the repo's fault/drain
//     contract.
//   - Pool: the front-tier client — rendezvous hashing (rank) routes each
//     (session, shard) to a worker with health-aware failover, fans each
//     layer across shards, and merges halo rows between layers.
//   - EstimateComm: the NoC/memory-model cost of the halo exchange.
//
// Bit-identity: local vertex ids are assigned in ascending global-id order,
// so every owned vertex's in-neighbor fold order is exactly the unsharded
// CSR order, and workers receive global degrees so message normalization
// matches too. fp32 sharded output is therefore byte-identical to
// single-process serving at any shard count (pinned at 1/2/4 by the serve
// golden test). int8 is excluded from that guarantee: its shared activation
// scale is computed per shard, not globally.
package shard

import (
	"fmt"
	"sort"

	"scale/internal/fault"
	"scale/internal/graph"
)

// Subgraph is one shard's slice of a partitioned graph: the subgraph induced
// by its owned vertices plus halo copies of their remote in-neighbors.
type Subgraph struct {
	// Index is the shard number in [0, Plan.K).
	Index int
	// Global maps local vertex id → global id, strictly ascending — the
	// monotone renumbering that preserves per-vertex reduce-chain order.
	Global []int32
	// Owned lists the local ids of vertices this shard owns (ascending).
	// Only owned rows are returned from a layer call.
	Owned []int32
	// Halo lists the local ids of halo copies (ascending): remote-owned
	// vertices whose rows are read by this shard's aggregations and
	// refreshed by the front tier between layers.
	Halo []int32
	// Graph is the local CSR: in-edges of owned vertices only, renumbered.
	// Halo vertices have no local in-edges.
	Graph *graph.Graph
	// Degrees carries each local vertex's global in-degree, so message
	// functions see the same SrcDeg an unsharded pass would.
	Degrees []int32
}

// Plan is a complete K-way partition of one graph.
type Plan struct {
	// K is the effective shard count (≤ the requested count when the graph
	// has fewer vertices than shards).
	K int
	// Assign maps global vertex id → owning shard.
	Assign []int32
	// Shards holds each shard's subgraph, indexed by shard number.
	Shards []Subgraph
	// EdgeCut is the fraction of edges whose source and destination live
	// on different shards — each one forces a halo copy.
	EdgeCut float64
	// Balance is the largest shard's owned-vertex count over the mean;
	// 1 means perfectly even ownership.
	Balance float64
	// HaloVertices is the total number of halo copies across all shards —
	// the rows the front tier re-distributes before every layer.
	HaloVertices int
}

// islandTarget picks the islandization cap for a k-way split: islands small
// enough that greedy packing can balance shards (≥ 4 islands per shard), but
// large enough to keep community structure together.
func islandTarget(n, k int) int {
	t := n / (4 * k)
	if t < 1 {
		t = 1
	}
	return t
}

// PartitionGraph splits g into (at most) k shards, minimizing the edge cut:
// the graph is islandized hub-first (graph.Islandize), islands are assigned
// largest-first to the shard with the strongest edge affinity to the
// island's vertices — subject to a 1.1× balance cap — and each shard's
// local CSR, halo index maps, and global-degree table are materialized.
// k must be positive (typed input error otherwise); k greater than |V|
// degrades to a |V|-way split.
func PartitionGraph(g *graph.Graph, k int) (*Plan, error) {
	if k <= 0 {
		return nil, fmt.Errorf("shard: shard count %d must be positive: %w", k, fault.ErrBadConfig)
	}
	n := g.NumVertices()
	if k > n && n > 0 {
		k = n
	}
	if n == 0 {
		return nil, fmt.Errorf("shard: cannot partition an empty graph: %w", fault.ErrBadGraph)
	}

	islands, _, err := graph.Islandize(g, islandTarget(n, k))
	if err != nil {
		return nil, err
	}
	// Largest-first greedy packing by edge affinity under a balance cap.
	order := make([]int, len(islands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(islands[order[a]].Vertices) > len(islands[order[b]].Vertices)
	})
	capacity := (n+k-1)/k + (n+k-1)/(k*10) + 1 // ~1.1× of an even split
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	loads := make([]int, k)
	affinity := make([]int64, k)
	for _, ii := range order {
		isl := islands[ii]
		for s := range affinity {
			affinity[s] = 0
		}
		// Affinity of island → shard: edges between the island's vertices
		// and vertices already placed on that shard (in-edge view; the
		// datasets insert both directions, so this sees both sides).
		for _, v := range isl.Vertices {
			for _, u := range g.InNeighbors(int(v)) {
				if s := assign[u]; s >= 0 {
					affinity[s]++
				}
			}
		}
		best := -1
		for s := 0; s < k; s++ {
			if loads[s]+len(isl.Vertices) > capacity {
				continue
			}
			if best < 0 || affinity[s] > affinity[best] ||
				(affinity[s] == affinity[best] && loads[s] < loads[best]) {
				best = s
			}
		}
		if best < 0 {
			// Nothing fits under the cap (an island larger than a shard):
			// fall back to the least-loaded shard.
			best = 0
			for s := 1; s < k; s++ {
				if loads[s] < loads[best] {
					best = s
				}
			}
		}
		for _, v := range isl.Vertices {
			assign[v] = int32(best)
		}
		loads[best] += len(isl.Vertices)
	}

	plan := &Plan{K: k, Assign: assign}
	var cut int64
	for v := 0; v < n; v++ {
		for _, u := range g.InNeighbors(v) {
			if assign[u] != assign[v] {
				cut++
			}
		}
	}
	if e := g.NumEdges(); e > 0 {
		plan.EdgeCut = float64(cut) / float64(e)
	}
	largest := 0
	for _, l := range loads {
		if l > largest {
			largest = l
		}
	}
	plan.Balance = float64(largest) / (float64(n) / float64(k))

	plan.Shards = make([]Subgraph, k)
	for s := 0; s < k; s++ {
		if plan.Shards[s], err = buildSubgraph(g, assign, s); err != nil {
			return nil, err
		}
		plan.HaloVertices += len(plan.Shards[s].Halo)
	}
	return plan, nil
}

// buildSubgraph materializes shard s's local CSR and index maps. Local ids
// are assigned in ascending global-id order over owned ∪ halo, so renumbering
// keeps every sorted global adjacency sorted, and the rows are emitted
// straight into a CSR that graph.FromCSR adopts.
func buildSubgraph(g *graph.Graph, assign []int32, s int) (Subgraph, error) {
	n := g.NumVertices()
	member := make([]bool, n)
	edges := 0
	for v := 0; v < n; v++ {
		if int(assign[v]) != s {
			continue
		}
		member[v] = true
		edges += g.InDegree(v)
		for _, u := range g.InNeighbors(v) {
			member[u] = true
		}
	}
	sub := Subgraph{Index: s}
	local := make([]int32, n) // global → local, -1 when absent
	for i := range local {
		local[i] = -1
	}
	for v := 0; v < n; v++ {
		if member[v] {
			local[v] = int32(len(sub.Global))
			sub.Global = append(sub.Global, int32(v))
		}
	}
	rowPtr := make([]int32, len(sub.Global)+1)
	colIdx := make([]int32, 0, edges)
	sub.Degrees = make([]int32, len(sub.Global))
	for li, gv := range sub.Global {
		sub.Degrees[li] = int32(g.InDegree(int(gv)))
		if int(assign[gv]) == s {
			sub.Owned = append(sub.Owned, int32(li))
			for _, u := range g.InNeighbors(int(gv)) {
				colIdx = append(colIdx, local[u])
			}
		} else {
			sub.Halo = append(sub.Halo, int32(li))
		}
		rowPtr[li+1] = int32(len(colIdx))
	}
	var err error
	sub.Graph, err = graph.FromCSR(fmt.Sprintf("%s/shard%d", g.Name(), s), rowPtr, colIdx)
	return sub, err
}
