// Package dyn is the dynamic-graph subsystem: a mutable overlay over the
// frozen CSR graph that the rest of the reproduction assumes.
//
// A dyn.Graph wraps an immutable base graph.Graph with an append-friendly
// delta overlay — edge inserts, edge removals, and vertex adds with feature
// rows — applied in atomic batches. Reads go through merged snapshots that
// are bit-exact equal to a from-scratch rebuild of the same edge multiset
// (both paths emit ascending-sorted CSR rows, so the float operation
// sequence of a forward pass is identical). When the delta fraction crosses
// a threshold, a bounded compaction re-freezes the overlay into the base
// CSR under the write lock, so a mutation arriving mid-compaction waits for
// it, as a read does.
//
// The package keeps no scheduling state. A schedule depends only on the
// degree profile, and the forward pass schedules each snapshot it runs.
package dyn

import (
	"fmt"
	"sort"
	"sync"

	"scale/internal/fault"
	"scale/internal/graph"
	"scale/internal/tensor"
)

// Config parameterizes a dynamic graph.
type Config struct {
	// CompactThreshold is the delta fraction (overlay edge ops / base
	// edges) above which Apply triggers compaction. <= 0 means the
	// default 0.25; +Inf effectively disables auto-compaction.
	CompactThreshold float64
}

func (c Config) withDefaults() Config {
	if c.CompactThreshold <= 0 {
		c.CompactThreshold = 0.25
	}
	return c
}

// edgeKey identifies a directed edge in the removal overlay.
type edgeKey struct{ dst, src int32 }

// Stats is a point-in-time snapshot of a dynamic graph's counters, exported
// to /metrics by the serving tier.
type Stats struct {
	Vertices     int
	Edges        int64 // live edge count (base − removed + added)
	BaseEdges    int64 // edges in the frozen base CSR
	DeltaAdded   int64 // overlay edge inserts not yet compacted
	DeltaRemoved int64 // overlay edge removals not yet compacted
	DeltaFrac    float64

	Mutations   int64 // individual ops applied since construction
	Batches     int64 // successful Apply calls
	Compactions int64
}

// Graph is a mutable graph: a frozen CSR base plus a delta overlay, with
// per-vertex feature rows. All methods are safe for concurrent use.
type Graph struct {
	mu  sync.RWMutex
	cfg Config

	base     *graph.Graph
	features *tensor.Matrix // rows track the live vertex count

	added        map[int32][]int32 // dst → srcs appended over the base
	removed      map[edgeKey]int32 // occurrences removed from the base row
	addedCount   int64
	removedCount int64

	degrees []int32 // live in-degrees

	// Cached merged snapshot; nil after any mutation.
	snap  *graph.Graph
	snapX *tensor.Matrix

	snapGen                        int64 // bumped per mutation batch, names snapshots
	mutations, batches, compactons int64
}

// New wraps a frozen base graph and its per-vertex feature matrix
// (x.Rows must equal the base vertex count) in a dynamic graph.
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
	return &Graph{
		cfg:      cfg.withDefaults(),
		base:     base,
		features: x.Clone(),
		added:    make(map[int32][]int32),
		removed:  make(map[edgeKey]int32),
		degrees:  base.Degrees(),
	}, nil
}

// NumVertices returns the live vertex count.
func (g *Graph) NumVertices() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.degrees)
}

// FeatureDim returns the width of the per-vertex feature rows.
func (g *Graph) FeatureDim() int { return g.features.Cols }

// Stats returns a consistent snapshot of the graph's counters.
func (g *Graph) Stats() Stats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return Stats{
		Vertices:     len(g.degrees),
		Edges:        int64(g.base.NumEdges()) + g.addedCount - g.removedCount,
		BaseEdges:    int64(g.base.NumEdges()),
		DeltaAdded:   g.addedCount,
		DeltaRemoved: g.removedCount,
		DeltaFrac:    g.deltaFrac(),
		Mutations:    g.mutations,
		Batches:      g.batches,
		Compactions:  g.compactons,
	}
}

// deltaFrac is the overlay's share of the base edge count. Callers hold mu.
func (g *Graph) deltaFrac() float64 {
	base := g.base.NumEdges()
	if base == 0 {
		base = 1
	}
	return float64(g.addedCount+g.removedCount) / float64(base)
}

// undoRec reverses one applied mutation; rollback walks records in reverse.
type undoRec struct {
	kind     OpKind
	src, dst int32
	canceled bool // RemoveEdge canceled a pending overlay add
}

// Apply applies the batch atomically: either every op lands or none does.
// Malformed ops — out-of-range vertices, removal of a nonexistent edge,
// wrong feature width — roll the batch back and return an error wrapping
// fault.ErrBadGraph / fault.ErrBadShape. On success it drops the cached
// snapshot.
func (g *Graph) Apply(b Batch) error {
	if len(b.Ops) == 0 {
		return fmt.Errorf("dyn: empty mutation batch: %w", fault.ErrBadGraph)
	}
	g.mu.Lock()
	defer g.mu.Unlock()

	undo := make([]undoRec, 0, len(b.Ops))
	rollback := func() {
		for i := len(undo) - 1; i >= 0; i-- {
			g.undo(undo[i])
		}
	}
	for i, op := range b.Ops {
		rec, err := g.applyOne(op)
		if err != nil {
			rollback()
			return fmt.Errorf("dyn: op %d (%v): %w", i, op.Op, err)
		}
		undo = append(undo, rec)
	}

	g.mutations += int64(len(b.Ops))
	g.batches++
	g.snapGen++
	g.snap, g.snapX = nil, nil
	if g.deltaFrac() > g.cfg.CompactThreshold {
		return g.compactLocked()
	}
	return nil
}

// applyOne applies a single validated op. Callers hold mu.
func (g *Graph) applyOne(op Mutation) (undoRec, error) {
	n := int32(len(g.degrees))
	switch op.Op {
	case OpAddEdge:
		if op.Src < 0 || op.Src >= n || op.Dst < 0 || op.Dst >= n {
			return undoRec{}, fmt.Errorf("edge (%d,%d) out of range [0,%d): %w", op.Src, op.Dst, n, fault.ErrBadGraph)
		}
		g.added[op.Dst] = append(g.added[op.Dst], op.Src)
		g.addedCount++
		g.degrees[op.Dst]++
		return undoRec{kind: OpAddEdge, src: op.Src, dst: op.Dst}, nil

	case OpRemoveEdge:
		if op.Src < 0 || op.Src >= n || op.Dst < 0 || op.Dst >= n {
			return undoRec{}, fmt.Errorf("edge (%d,%d) out of range [0,%d): %w", op.Src, op.Dst, n, fault.ErrBadGraph)
		}
		// Cancel a pending overlay add first; otherwise count the removal
		// against the base CSR, bounded by how many base occurrences remain.
		if row := g.added[op.Dst]; len(row) > 0 {
			for i, s := range row {
				if s == op.Src {
					row[i] = row[len(row)-1]
					g.added[op.Dst] = row[:len(row)-1]
					if len(row) == 1 {
						delete(g.added, op.Dst)
					}
					g.addedCount--
					g.degrees[op.Dst]--
					return undoRec{kind: OpRemoveEdge, src: op.Src, dst: op.Dst, canceled: true}, nil
				}
			}
		}
		key := edgeKey{dst: op.Dst, src: op.Src}
		if int(op.Dst) < g.base.NumVertices() {
			if avail := baseOccurrences(g.base, op.Src, op.Dst) - g.removed[key]; avail > 0 {
				g.removed[key]++
				g.removedCount++
				g.degrees[op.Dst]--
				return undoRec{kind: OpRemoveEdge, src: op.Src, dst: op.Dst}, nil
			}
		}
		return undoRec{}, fmt.Errorf("edge (%d,%d) does not exist: %w", op.Src, op.Dst, fault.ErrBadGraph)

	case OpAddVertex:
		if len(op.Features) != g.features.Cols {
			return undoRec{}, fmt.Errorf("feature width %d != %d: %w", len(op.Features), g.features.Cols, fault.ErrBadShape)
		}
		g.degrees = append(g.degrees, 0)
		g.features.Data = append(g.features.Data, op.Features...)
		g.features.Rows++
		return undoRec{kind: OpAddVertex, dst: n}, nil

	default:
		return undoRec{}, fmt.Errorf("unknown op kind %d: %w", op.Op, fault.ErrBadGraph)
	}
}

// undo reverses one applied op. Callers hold mu and walk records in reverse
// application order, so "last appended" state is always the record's own.
func (g *Graph) undo(rec undoRec) {
	switch rec.kind {
	case OpAddEdge:
		row := g.added[rec.dst]
		g.added[rec.dst] = row[:len(row)-1]
		if len(row) == 1 {
			delete(g.added, rec.dst)
		}
		g.addedCount--
		g.degrees[rec.dst]--
	case OpRemoveEdge:
		if rec.canceled {
			g.added[rec.dst] = append(g.added[rec.dst], rec.src)
			g.addedCount++
		} else {
			key := edgeKey{dst: rec.dst, src: rec.src}
			g.removed[key]--
			if g.removed[key] == 0 {
				delete(g.removed, key)
			}
			g.removedCount--
		}
		g.degrees[rec.dst]++
	case OpAddVertex:
		g.degrees = g.degrees[:len(g.degrees)-1]
		g.features.Data = g.features.Data[:len(g.features.Data)-g.features.Cols]
		g.features.Rows--
	}
}

// baseOccurrences counts occurrences of src in dst's base CSR row by binary
// search on the sorted adjacency (the graph is a multigraph, so duplicates
// are contiguous).
func baseOccurrences(base *graph.Graph, src, dst int32) int32 {
	row := base.InNeighbors(int(dst))
	lo := sort.Search(len(row), func(i int) bool { return row[i] >= src })
	hi := sort.Search(len(row), func(i int) bool { return row[i] > src })
	return int32(hi - lo)
}

// View returns a frozen snapshot of the live graph — a merged CSR plus a
// read-only view of the feature rows as they stand (frozenFeatures) —
// safe to read while mutations continue; callers must not write it. The
// snapshot is cached until the next mutation batch, so concurrent inference
// between mutations shares one merge. The merged CSR is bit-exact equal to
// rebuilding the same edge multiset from scratch with graph.Builder: both
// emit ascending-sorted rows, which is what the bit-identity soak pins.
func (g *Graph) View() (*graph.Graph, *tensor.Matrix, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.snapshotLocked(); err != nil {
		return nil, nil, err
	}
	return g.snap, g.snapX, nil
}

// snapshotLocked (re)builds the cached merged snapshot. Callers hold mu.
func (g *Graph) snapshotLocked() error {
	if g.snap != nil {
		return nil
	}
	merged, err := g.merge(fmt.Sprintf("%s@%d", g.base.Name(), g.snapGen))
	if err != nil {
		return err
	}
	g.snap = merged
	g.snapX = g.frozenFeatures()
	return nil
}

// frozenFeatures returns a snapshot of the live feature rows that shares
// their backing array, capped at the current length. Rows are only ever
// appended (OpAddVertex) or, by a failing batch's undo, truncated back to
// where that batch began, which is never below a snapshot taken before
// it, so no row a snapshot can see is written again. Callers hold mu.
func (g *Graph) frozenFeatures() *tensor.Matrix {
	n := len(g.features.Data)
	return &tensor.Matrix{Rows: g.features.Rows, Cols: g.features.Cols, Data: g.features.Data[:n:n]}
}

// merge materializes the base CSR plus overlay into a fresh sorted CSR.
// Callers hold mu (read suffices: merge only reads overlay state).
func (g *Graph) merge(name string) (*graph.Graph, error) {
	n := len(g.degrees)
	rowPtr := make([]int32, n+1)
	var sum int32
	for v, d := range g.degrees {
		rowPtr[v] = sum
		sum += d
	}
	rowPtr[n] = sum
	colIdx := make([]int32, sum)
	baseN := g.base.NumVertices()
	for v := 0; v < n; v++ {
		out := colIdx[rowPtr[v]:rowPtr[v+1]]
		var base []int32
		if v < baseN {
			base = g.base.InNeighbors(v)
		}
		adds := g.added[int32(v)]
		if len(adds) > 1 {
			adds = append([]int32(nil), adds...)
			sort.Slice(adds, func(i, j int) bool { return adds[i] < adds[j] })
		}
		k := 0
		bi, ai := 0, 0
		for bi < len(base) || ai < len(adds) {
			// Drop base occurrences consumed by the removal overlay. The
			// whole duplicate run is handled in one step — surviving
			// occurrences are emitted here — so the removal count is never
			// consulted twice for one run (duplicates are contiguous in the
			// sorted row, and the count is bounded by the run length).
			if bi < len(base) {
				src := base[bi]
				if rem := g.removed[edgeKey{dst: int32(v), src: src}]; rem > 0 {
					for ai < len(adds) && adds[ai] < src {
						out[k] = adds[ai]
						ai++
						k++
					}
					run := bi
					for run < len(base) && base[run] == src {
						run++
					}
					keep := int32(run-bi) - rem
					bi = run
					for ; keep > 0; keep-- {
						out[k] = src
						k++
					}
					continue
				}
			}
			switch {
			case bi == len(base):
				out[k] = adds[ai]
				ai++
			case ai == len(adds) || base[bi] <= adds[ai]:
				out[k] = base[bi]
				bi++
			default:
				out[k] = adds[ai]
				ai++
			}
			k++
		}
		if k != len(out) {
			return nil, fmt.Errorf("dyn: merge row %d produced %d edges, want %d: %w", v, k, len(out), fault.ErrBadGraph)
		}
	}
	return graph.FromCSR(name, rowPtr, colIdx)
}

// compactLocked does the work of Compact. Callers hold mu.
func (g *Graph) compactLocked() error {
	if g.addedCount == 0 && g.removedCount == 0 && len(g.degrees) == g.base.NumVertices() {
		return nil
	}
	merged, err := g.merge(g.base.Name())
	if err != nil {
		return err
	}
	g.base = merged
	g.added = make(map[int32][]int32)
	g.removed = make(map[edgeKey]int32)
	g.addedCount, g.removedCount = 0, 0
	g.compactons++
	// The merged base IS the live graph; keep it as the snapshot too.
	if g.snap == nil {
		g.snap = merged
		g.snapX = g.frozenFeatures()
	}
	return nil
}
