// Package graph provides the graph substrate for the SCALE reproduction:
// a compressed-sparse-row (CSR) graph type, degree statistics, seeded
// synthetic generators, and a registry of datasets matching the statistics
// of Table II of the paper (Cora, CiteSeer, PubMed, Nell, Reddit).
//
// GNN aggregation pulls messages from in-neighbors, so the CSR stores, for
// each destination vertex v, the list of source vertices u with an edge
// u → v. Undirected datasets insert both directions.
package graph

import (
	"fmt"
	"slices"

	"scale/internal/fault"
)

// Graph is an immutable directed graph in CSR (in-edge) form.
type Graph struct {
	name   string
	rowPtr []int32 // len NumVertices+1; rowPtr[v]..rowPtr[v+1] index colIdx
	colIdx []int32 // sources of the in-edges of each vertex
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	numVertices int
	srcs, dsts  []int32
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Builder{numVertices: n}
}

// AddEdge records a directed edge src → dst. Panics on out-of-range vertices.
func (b *Builder) AddEdge(src, dst int) {
	if src < 0 || src >= b.numVertices || dst < 0 || dst >= b.numVertices {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", src, dst, b.numVertices))
	}
	b.srcs = append(b.srcs, int32(src))
	b.dsts = append(b.dsts, int32(dst))
}

// AddUndirected records both src → dst and dst → src.
func (b *Builder) AddUndirected(u, v int) {
	b.AddEdge(u, v)
	b.AddEdge(v, u)
}

// Grow reserves room for m more edges, so adding them does not reallocate.
func (b *Builder) Grow(m int) {
	b.srcs = slices.Grow(b.srcs, m)
	b.dsts = slices.Grow(b.dsts, m)
}

// Build produces the CSR graph. Duplicate edges are retained (multi-edges are
// legal inputs to sum-style aggregation); callers wanting simple graphs should
// deduplicate before adding.
func (b *Builder) Build(name string) *Graph {
	g := &Graph{
		name:   name,
		rowPtr: make([]int32, b.numVertices+1),
		colIdx: make([]int32, len(b.srcs)),
	}
	// Counting sort by destination.
	counts := make([]int32, b.numVertices)
	for _, d := range b.dsts {
		counts[d]++
	}
	var sum int32
	for v, c := range counts {
		g.rowPtr[v] = sum
		sum += c
	}
	g.rowPtr[b.numVertices] = sum
	cursor := make([]int32, b.numVertices)
	copy(cursor, g.rowPtr[:b.numVertices])
	for i, d := range b.dsts {
		g.colIdx[cursor[d]] = b.srcs[i]
		cursor[d]++
	}
	// Sort each adjacency list for deterministic iteration and fast
	// intersection in the redundancy pass.
	for v := 0; v < b.numVertices; v++ {
		slices.Sort(g.colIdx[g.rowPtr[v]:g.rowPtr[v+1]])
	}
	return g
}

// FromCSR adopts an already-built CSR (rowPtr, colIdx) as an immutable
// Graph, validating the structural invariants (monotone row pointers,
// in-range sorted adjacency). The slices are adopted, not copied — the
// caller must not mutate them afterwards. The dynamic-graph overlay
// (internal/dyn) uses it to freeze merged snapshots and sampled subgraphs
// without re-running the Builder's counting sort: its rows are already
// sorted, so validation is the only cost.
func FromCSR(name string, rowPtr, colIdx []int32) (*Graph, error) {
	if len(rowPtr) < 1 {
		return nil, fmt.Errorf("graph %q: empty row-pointer array: %w", name, fault.ErrBadGraph)
	}
	g := &Graph{name: name, rowPtr: rowPtr, colIdx: colIdx}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Name returns the graph's label (dataset name or generator tag).
func (g *Graph) Name() string { return g.name }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.rowPtr) - 1 }

// NumEdges returns the number of directed edges |E|.
func (g *Graph) NumEdges() int { return len(g.colIdx) }

// InDegree returns the number of in-edges of v — the aggregation workload of
// vertex v in the message passing model.
func (g *Graph) InDegree(v int) int {
	return int(g.rowPtr[v+1] - g.rowPtr[v])
}

// InNeighbors returns the (sorted, read-only) sources of v's in-edges.
func (g *Graph) InNeighbors(v int) []int32 {
	return g.colIdx[g.rowPtr[v]:g.rowPtr[v+1]]
}

// AvgDegree returns |E| / |V|.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumVertices())
}

// Degrees returns a fresh slice of all in-degrees.
func (g *Graph) Degrees() []int32 {
	ds := make([]int32, g.NumVertices())
	for v := range ds {
		ds[v] = int32(g.InDegree(v))
	}
	return ds
}

// Validate checks structural invariants and returns a descriptive error on
// the first violation. It is used by tests and by the binary decoder.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if g.rowPtr[0] != 0 {
		return fmt.Errorf("graph %q: rowPtr[0] = %d, want 0: %w", g.name, g.rowPtr[0], fault.ErrBadGraph)
	}
	for v := 0; v < n; v++ {
		if g.rowPtr[v+1] < g.rowPtr[v] {
			return fmt.Errorf("graph %q: rowPtr not monotone at %d: %w", g.name, v, fault.ErrBadGraph)
		}
		// Bounds before slicing: a decoded stream can carry row pointers
		// past |E|, and InNeighbors must not panic during validation.
		if int(g.rowPtr[v+1]) > len(g.colIdx) {
			return fmt.Errorf("graph %q: rowPtr[%d]=%d exceeds |E|=%d: %w", g.name, v+1, g.rowPtr[v+1], len(g.colIdx), fault.ErrBadGraph)
		}
		row := g.InNeighbors(v)
		for i, u := range row {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph %q: neighbor %d of %d out of range: %w", g.name, u, v, fault.ErrBadGraph)
			}
			if i > 0 && row[i-1] > u {
				return fmt.Errorf("graph %q: adjacency of %d not sorted: %w", g.name, v, fault.ErrBadGraph)
			}
		}
	}
	if int(g.rowPtr[n]) != len(g.colIdx) {
		return fmt.Errorf("graph %q: rowPtr[n]=%d != |E|=%d: %w", g.name, g.rowPtr[n], len(g.colIdx), fault.ErrBadGraph)
	}
	return nil
}

// String describes the graph without dumping its contents.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(%s: |V|=%d |E|=%d avg=%.1f)", g.name, g.NumVertices(), g.NumEdges(), g.AvgDegree())
}
