// Package dyn is the dynamic-graph subsystem: a mutable graph kept as the
// frozen CSR that the rest of the reproduction assumes.
//
// A dyn.Graph holds one immutable CSR, the live graph, and its per-vertex
// feature rows. Apply checks a batch of edge inserts, edge removals and
// vertex adds op by op and writes the result into a new CSR, which replaces
// the live one only once every op has passed, so a rejected batch leaves
// the graph as it was. Every row of the new CSR is sorted ascending, as
// graph.Builder sorts it, so a view is bit-exact equal to a from-scratch
// rebuild of the same edge multiset and a forward pass over it runs the
// same float operation sequence. A batch pays for a whole new CSR; a read
// pays nothing.
//
// The package keeps no scheduling state. A schedule depends only on the
// degree profile, and the forward pass schedules each view it runs.
package dyn

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"scale/internal/fault"
	"scale/internal/graph"
	"scale/internal/tensor"
)

// Config parameterizes a dynamic graph.
type Config struct {
	// CompactThreshold is ignored: every batch writes a new CSR, so there
	// is no overlay to compact.
	CompactThreshold float64
}

// Stats is a point-in-time snapshot of a dynamic graph's counters, exported
// to /metrics by the serving tier.
type Stats struct {
	Vertices  int
	Edges     int64 // live edge count
	Mutations int64 // individual ops applied since construction
	Batches   int64 // successful Apply calls
}

// Graph is a mutable graph: an immutable live CSR, replaced by each
// successful batch, with per-vertex feature rows. All methods are safe for
// concurrent use.
type Graph struct {
	mu       sync.RWMutex
	name     string // the base graph's name; batch k's CSR is name@k
	live     *graph.Graph
	features *tensor.Matrix // rows track the live vertex count

	gen       int64 // successful batches, which name the live CSR
	mutations int64
}

// New wraps a frozen base graph and its per-vertex feature matrix
// (x.Rows must equal the base vertex count) in a dynamic graph. The base is
// the live graph until the first batch. cfg is ignored.
func New(base *graph.Graph, x *tensor.Matrix, cfg Config) (*Graph, error) {
	if base == nil {
		return nil, fmt.Errorf("dyn: nil base graph: %w", fault.ErrBadGraph)
	}
	if x == nil {
		return nil, fmt.Errorf("dyn: nil feature matrix: %w", fault.ErrBadShape)
	}
	if x.Rows != base.NumVertices() {
		return nil, fmt.Errorf("dyn: feature rows %d != vertices %d: %w", x.Rows, base.NumVertices(), fault.ErrBadShape)
	}
	return &Graph{name: base.Name(), live: base, features: x.Clone()}, nil
}

// NumVertices returns the live vertex count.
func (g *Graph) NumVertices() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.live.NumVertices()
}

// FeatureDim returns the width of the per-vertex feature rows.
func (g *Graph) FeatureDim() int { return g.features.Cols }

// Stats returns a consistent snapshot of the graph's counters.
func (g *Graph) Stats() Stats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return Stats{
		Vertices:  g.live.NumVertices(),
		Edges:     int64(g.live.NumEdges()),
		Mutations: g.mutations,
		Batches:   g.gen,
	}
}

// edgeKey identifies a directed edge.
type edgeKey struct{ dst, src int32 }

// edit is a batch's net change to the occurrences of src in dst's row.
type edit struct{ dst, src, n int32 }

// Apply applies the batch atomically. It checks each op against the graph
// as the batch's earlier ops leave it: an edge op's vertices must exist, an
// add_vertex must carry FeatureDim features, and a removal first cancels
// an insert of the same edge earlier in the batch, otherwise takes one of
// the live row's occurrences the batch has not already taken. The first op
// that fails returns an error wrapping fault.ErrBadGraph or
// fault.ErrBadShape and leaves the graph as it was. Once every op has
// passed, Apply writes the new CSR, copying the rows the batch does not
// touch, swaps it in and appends the new vertices' feature rows.
func (g *Graph) Apply(b Batch) error {
	if len(b.Ops) == 0 {
		return fmt.Errorf("dyn: empty mutation batch: %w", fault.ErrBadGraph)
	}
	g.mu.Lock()
	defer g.mu.Unlock()

	// net[(dst,src)] is the batch's inserts minus its removals of src → dst
	// so far. A removal is legal while the live row's occurrences plus net
	// stay positive: a positive net is an insert it cancels, a negative one
	// counts the live occurrences already taken.
	net := make(map[edgeKey]int32)
	n := int32(g.live.NumVertices())
	for i, op := range b.Ops {
		var err error
		switch op.Op {
		case OpAddEdge, OpRemoveEdge:
			if op.Src < 0 || op.Src >= n || op.Dst < 0 || op.Dst >= n {
				err = fmt.Errorf("edge (%d,%d) out of range [0,%d): %w", op.Src, op.Dst, n, fault.ErrBadGraph)
				break
			}
			k := edgeKey{dst: op.Dst, src: op.Src}
			if op.Op == OpAddEdge {
				net[k]++
			} else if g.occurrences(k)+net[k] > 0 {
				net[k]--
			} else {
				err = fmt.Errorf("edge (%d,%d) does not exist: %w", op.Src, op.Dst, fault.ErrBadGraph)
			}
		case OpAddVertex:
			if len(op.Features) != g.features.Cols {
				err = fmt.Errorf("feature width %d != %d: %w", len(op.Features), g.features.Cols, fault.ErrBadShape)
			}
			n++
		default:
			err = fmt.Errorf("unknown op kind %d: %w", op.Op, fault.ErrBadGraph)
		}
		if err != nil {
			return fmt.Errorf("dyn: op %d (%v): %w", i, op.Op, err)
		}
	}

	live, err := g.rebuild(int(n), net)
	if err != nil {
		return err
	}
	g.live = live
	g.gen++
	g.mutations += int64(len(b.Ops))
	for _, op := range b.Ops {
		if op.Op == OpAddVertex {
			g.features.Data = append(g.features.Data, op.Features...)
			g.features.Rows++
		}
	}
	return nil
}

// occurrences counts src in dst's live row, a contiguous run of the sorted
// multigraph row. A vertex the batch adds has an empty live row. Callers
// hold mu.
func (g *Graph) occurrences(k edgeKey) int32 {
	if int(k.dst) >= g.live.NumVertices() {
		return 0
	}
	row := g.live.InNeighbors(int(k.dst))
	lo, _ := slices.BinarySearch(row, k.src)
	hi, _ := slices.BinarySearch(row, k.src+1)
	return int32(hi - lo)
}

// rebuild writes the live graph with the batch's net edits applied as a new
// n-vertex CSR named for the next generation, checking its row pointers and
// the rows the edits touch. Callers hold mu.
func (g *Graph) rebuild(n int, net map[edgeKey]int32) (*graph.Graph, error) {
	edits := make([]edit, 0, len(net))
	for k, c := range net {
		if c != 0 {
			edits = append(edits, edit{dst: k.dst, src: k.src, n: c})
		}
	}
	slices.SortFunc(edits, func(a, b edit) int {
		return cmp.Or(cmp.Compare(a.dst, b.dst), cmp.Compare(a.src, b.src))
	})

	oldN := g.live.NumVertices()
	rowPtr := make([]int32, n+1)
	for _, e := range edits {
		rowPtr[e.dst+1] += e.n
	}
	for v := 0; v < n; v++ {
		if v < oldN {
			rowPtr[v+1] += int32(g.live.InDegree(v))
		}
		rowPtr[v+1] += rowPtr[v]
	}
	colIdx := make([]int32, rowPtr[n])
	touched := make([]int32, 0, len(edits))
	for v := 0; v < n; v++ {
		var row []int32
		if v < oldN {
			row = g.live.InNeighbors(v)
		}
		i := 0
		for i < len(edits) && edits[i].dst == int32(v) {
			i++
		}
		if i > 0 {
			touched = append(touched, int32(v))
		}
		mergeRow(colIdx[rowPtr[v]:rowPtr[v+1]], row, edits[:i])
		edits = edits[i:]
	}
	// Every untouched row is a copy of a live row, sorted and below the
	// live vertex count, which no batch lowers.
	return graph.FromCSRRows(fmt.Sprintf("%s@%d", g.name, g.gen+1), rowPtr, colIdx, touched)
}

// mergeRow writes the sorted row with one row's edits (sorted by src)
// applied into out, which holds exactly the edited row: each insert's
// sources go in ahead of the run of equal sources, and each removal drops
// the first occurrences of its run.
func mergeRow(out, row []int32, edits []edit) {
	k := 0
	for _, e := range edits {
		i, _ := slices.BinarySearch(row, e.src)
		k += copy(out[k:], row[:i])
		row = row[i:]
		for c := e.n; c > 0; c-- {
			out[k] = e.src
			k++
		}
		if e.n < 0 {
			row = row[-e.n:]
		}
	}
	copy(out[k:], row)
}

// View returns the live graph — its CSR plus a read-only view of the
// feature rows as they stand (frozenFeatures) — safe to read while
// mutations continue; callers must not write it. The error is always nil.
func (g *Graph) View() (*graph.Graph, *tensor.Matrix, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.live, g.frozenFeatures(), nil
}

// frozenFeatures returns a snapshot of the live feature rows that shares
// their backing array, capped at the current length. Rows are only ever
// appended, by a batch that has passed, so no row a snapshot can see is
// written again. Callers hold mu.
func (g *Graph) frozenFeatures() *tensor.Matrix {
	n := len(g.features.Data)
	return &tensor.Matrix{Rows: g.features.Rows, Cols: g.features.Cols, Data: g.features.Data[:n:n]}
}
