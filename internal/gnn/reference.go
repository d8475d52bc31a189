package gnn

import (
	"fmt"
	"math/rand"

	"scale/internal/graph"
	"scale/internal/tensor"
)

// RandomFeatures returns a |V|×dim input feature matrix, deterministically
// seeded. Magnitudes are kept small so multi-layer float32 forward passes
// compare tightly across executors.
func RandomFeatures(g *graph.Graph, dim int, seed int64) *tensor.Matrix {
	return tensor.RandomMatrix(rand.New(rand.NewSource(seed)), g.NumVertices(), dim, 0.5)
}

// Forward runs the golden reference forward pass of model m over graph g with
// input features x (|V|×InDim) and returns the per-layer outputs. This
// executor is deliberately the most direct possible translation of Eq. 1–2:
// every accelerator's functional path is validated against it. It runs
// row-parallel over destination vertices (GOMAXPROCS workers), which is
// bit-identical to the serial sweep — see ForwardParallel.
func Forward(m *Model, g *graph.Graph, x *tensor.Matrix) ([]*tensor.Matrix, error) {
	return ForwardParallel(m, g, x, 0)
}

// ForwardParallel is Forward with an explicit worker budget (< 1 selects
// GOMAXPROCS, 1 runs serially). Destination vertices are partitioned across
// workers and each vertex's reduce chain folds its in-edges in the same
// adjacency order regardless of the partition, so the output is bit-identical
// for every worker count.
func ForwardParallel(m *Model, g *graph.Graph, x *tensor.Matrix, workers int) ([]*tensor.Matrix, error) {
	if x.Rows != g.NumVertices() {
		return nil, fmt.Errorf("gnn: features have %d rows, graph has %d vertices", x.Rows, g.NumVertices())
	}
	if x.Cols != m.InDim() {
		return nil, fmt.Errorf("gnn: features have %d cols, model wants %d", x.Cols, m.InDim())
	}
	outs := make([]*tensor.Matrix, 0, len(m.Layers))
	h := x
	for li, l := range m.Layers {
		next, err := ForwardLayerParallel(l, g, h, workers)
		if err != nil {
			return nil, fmt.Errorf("gnn: layer %d: %w", li, err)
		}
		outs = append(outs, next)
		h = next
	}
	return outs, nil
}

// ForwardLayerParallel runs one layer with destination vertices fanned across
// up to `workers` goroutines, each owning its msg/acc/update scratch. The
// hot loop drives the layer's fused AccumulateEdge and in-place UpdateInto
// kernels, so steady state performs no per-vertex or per-edge allocation. A
// LinearAggregator's accumulator is scaled by DstCoef(in-degree) once per
// vertex, before Finalize, as the functional executor does.
func ForwardLayerParallel(l Layer, g *graph.Graph, h *tensor.Matrix, workers int) (*tensor.Matrix, error) {
	if h.Cols != l.InDim() {
		return nil, fmt.Errorf("input dim %d != layer dim %d", h.Cols, l.InDim())
	}
	psrc, pdst := l.Prepare(h, workers)
	lin, _ := l.(LinearAggregator)
	kind := l.Reduce()
	width := kind.AccWidth(l.MsgDim())
	out := tensor.NewMatrix(h.Rows, l.OutDim())
	n := g.NumVertices()
	nw := tensor.RowWorkers(n, workers)
	// Per-worker scratch: message buffer (unfused custom layers), reduce
	// accumulator, and update scratch, packed into one backing slice each.
	type workerState struct {
		msg, acc, scratch []float32
	}
	states := make([]workerState, nw)
	us := l.UpdateScratch()
	for i := range states {
		buf := make([]float32, 2*width+us)
		states[i] = workerState{msg: buf[:width], acc: buf[width : 2*width], scratch: buf[2*width:]}
	}
	tensor.ParallelRows(n, nw, func(w, lo, hi int) {
		st := &states[w]
		for v := lo; v < hi; v++ {
			nbrs := g.InNeighbors(v)
			acc := st.acc
			for i := range acc {
				acc[i] = 0
			}
			var pdstRow []float32
			if pdst != nil {
				pdstRow = pdst.Row(v)
			}
			for _, u := range nbrs {
				ctx := EdgeContext{Src: int(u), Dst: v, SrcDeg: g.InDegree(int(u)), DstDeg: len(nbrs)}
				l.AccumulateEdge(acc, psrc.Row(int(u)), pdstRow, st.msg, ctx)
			}
			if lin != nil {
				if c := lin.DstCoef(len(nbrs)); c != 1 {
					tensor.Scale(c, acc)
				}
			}
			agg := kind.Finalize(acc, l.MsgDim(), len(nbrs))
			l.UpdateInto(out.Row(v), h.Row(v), agg, st.scratch)
		}
	})
	return out, nil
}
