package graph

import (
	"fmt"
	"math/rand"
	"slices"
)

// ErdosRenyi generates a directed G(n, m) graph with exactly m edges sampled
// uniformly (self-loops excluded, multi-edges possible but rare for sparse m).
func ErdosRenyi(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		for dst == src {
			dst = rng.Intn(n)
		}
		b.AddEdge(src, dst)
	}
	return b.Build(fmt.Sprintf("er-%d-%d", n, m))
}

// PreferentialAttachment generates an undirected Barabási–Albert-style graph:
// each new vertex attaches to `attach` existing vertices with probability
// proportional to current degree, yielding the power-law degree skew of
// knowledge graphs such as Nell. The result has n vertices and roughly
// 2·attach·n directed edges.
func PreferentialAttachment(n, attach int, seed int64) *Graph {
	if attach < 1 {
		attach = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	// endpoint multiset for proportional sampling
	endpoints := make([]int32, 0, 2*attach*n)
	seedSize := attach + 1
	if seedSize > n {
		seedSize = n
	}
	// Seed clique over the first seedSize vertices.
	for u := 0; u < seedSize; u++ {
		for v := u + 1; v < seedSize; v++ {
			b.AddUndirected(u, v)
			endpoints = append(endpoints, int32(u), int32(v))
		}
	}
	// The picks are kept in pick order: the endpoint order steers later
	// picks, so iterating a set here would make the graph differ per run.
	chosen := make([]int32, 0, attach)
	for v := seedSize; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < attach {
			var target int32
			if len(endpoints) == 0 || rng.Float64() < 0.05 {
				target = int32(rng.Intn(v)) // uniform escape keeps the tail finite
			} else {
				target = endpoints[rng.Intn(len(endpoints))]
			}
			if int(target) == v || slices.Contains(chosen, target) {
				continue
			}
			chosen = append(chosen, target)
		}
		for _, t := range chosen {
			b.AddUndirected(v, int(t))
			endpoints = append(endpoints, int32(v), t)
		}
	}
	return b.Build(fmt.Sprintf("pa-%d-%d", n, attach))
}

// CitationLike generates an undirected low-degree graph shaped like the
// citation datasets (Cora/CiteSeer/PubMed): mostly small degrees with a
// modest power-law tail. n vertices, ~m directed edges.
func CitationLike(n, m int, seed int64) *Graph {
	undirected := m / 2
	profile := SyntheticProfile("", n, int64(undirected), 0.65, seed)
	return FromDegreeSequence(fmt.Sprintf("cite-%d-%d", n, m), profile.Degrees, seed+1)
}

// CommunityGraph generates an undirected graph of `communities` dense groups
// with occasional cross-links — the Reddit-like regime: high average degree
// and a large mutual-neighbor rate (pairs of vertices sharing many common
// neighbors), which drives the redundancy-elimination results (Table III).
func CommunityGraph(n, communities, avgDegree int, seed int64) *Graph {
	if communities < 1 {
		communities = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	commOf := make([]int, n)
	members := make([][]int, communities)
	for v := 0; v < n; v++ {
		c := rng.Intn(communities)
		commOf[v] = c
		members[c] = append(members[c], v)
	}
	halfEdges := n * avgDegree / 4 // each AddUndirected emits 2 directed edges; loop adds 2 per vertex-pair draw
	for i := 0; i < halfEdges; i++ {
		u := rng.Intn(n)
		var v int
		if rng.Float64() < 0.92 { // intra-community: drives shared neighbors
			group := members[commOf[u]]
			if len(group) < 2 {
				v = rng.Intn(n)
			} else {
				v = group[rng.Intn(len(group))]
			}
		} else {
			v = rng.Intn(n)
		}
		if u == v {
			continue
		}
		b.AddUndirected(u, v)
		// Second draw shares an endpoint to boost triangle/mutual rate.
		group := members[commOf[u]]
		if len(group) >= 2 {
			w := group[rng.Intn(len(group))]
			if w != u && w != v {
				b.AddUndirected(v, w)
			}
		}
	}
	return b.Build(fmt.Sprintf("community-%d-%d", n, communities))
}

// FromDegreeSequence materializes a graph whose in-degree sequence matches
// `degrees` exactly, using a configuration-model style random wiring (each
// vertex v receives degrees[v] in-edges from uniformly random sources).
// Self-loops are avoided when possible.
func FromDegreeSequence(name string, degrees []int32, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := len(degrees)
	b := NewBuilder(n)
	for v, d := range degrees {
		for k := int32(0); k < d; k++ {
			src := rng.Intn(n)
			if src == v && n > 1 {
				src = (src + 1) % n
			}
			b.AddEdge(src, v)
		}
	}
	return b.Build(name)
}

// Path returns a directed path 0 → 1 → … → n−1; handy in unit tests.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v-1, v)
	}
	return b.Build(fmt.Sprintf("path-%d", n))
}

// Star returns a graph where vertices 1..n−1 all point at vertex 0, giving a
// single maximal-degree aggregation — the stress case for ring wrap-around.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, 0)
	}
	return b.Build(fmt.Sprintf("star-%d", n))
}
