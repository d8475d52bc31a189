package core

import (
	"context"
	"fmt"

	"scale/internal/fault"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/sched"
	"scale/internal/tensor"
)

// fwdWorker owns one executor goroutine's scratch: the buf backing slice is
// viewed as msg | acc | update-scratch windows sized per layer, coefs holds
// the float32 reduce chain's per-edge coefficients (grown to the largest
// in-neighbour list the worker has run), and err carries the first failure
// the worker hit (collected after the per-batch barrier).
type fwdWorker struct {
	buf               []float32
	msg, acc, scratch []float32
	coefs             []float32
	qs                []int8
	acc32             []int32
	qswar             []uint64
	err               error
}

// fwdState is the recycled per-call state of the functional executor. It is
// pooled on the SCALE value so repeated Forward calls reuse the seen table,
// the batch list, the compact schedulers (one per ring geometry the model's
// layers select), the prepared matrix of layers that aggregate at the
// narrower width (with its int8 row scratch), and every worker's scratch —
// the steady-state hot path allocates only the per-layer output matrices.
type fwdState struct {
	seen       []bool
	degrees    []int32
	verts      []int32
	batches    [][]int32
	schedulers map[sched.Config]*sched.Scheduler
	workers    []fwdWorker
	// prep holds the per-layer transformed rows h·W of a narrowing
	// linear-sum layer on either tier (gnn.PrepareLayerInto); recycled
	// across layers and calls.
	prep gnn.PrepareBuf
	// qpsrc holds the per-layer quantized source features on the int8
	// tier (LinearAggregator layers only) and qcoefs the per-row source
	// coefficients folded into them; recycled across layers and calls.
	qpsrc  *tensor.QSumMatrix
	qcoefs []float32
}

func (st *fwdState) scheduler(cfg sched.Config) (*sched.Scheduler, error) {
	if st.schedulers == nil {
		st.schedulers = make(map[sched.Config]*sched.Scheduler)
	}
	if s, ok := st.schedulers[cfg]; ok {
		return s, nil
	}
	s, err := sched.NewScheduler(cfg, true)
	if err != nil {
		return nil, err
	}
	st.schedulers[cfg] = s
	return s, nil
}

// batchesFor returns the vertex batches for n vertices at batch size b,
// reusing the state's identity permutation and batch list.
func (st *fwdState) batchesFor(n, b int) [][]int32 {
	if cap(st.verts) < n {
		st.verts = make([]int32, n)
		for i := range st.verts {
			st.verts[i] = int32(i)
		}
	}
	st.batches = st.batches[:0]
	for start := 0; start < n; start += b {
		end := start + b
		if end > n {
			end = n
		}
		st.batches = append(st.batches, st.verts[start:end])
	}
	return st.batches
}

// sizeWorkers (re)shapes nw workers' scratch windows for a layer's
// accumulator width, update-scratch need, and (int8 tier) quantization and
// integer-accumulator scratch needs.
func (st *fwdState) sizeWorkers(nw, width, updateScratch, qScratch, qAccWidth int) []fwdWorker {
	for len(st.workers) < nw {
		st.workers = append(st.workers, fwdWorker{})
	}
	need := 2*width + updateScratch
	ws := st.workers[:nw]
	for i := range ws {
		w := &ws[i]
		if cap(w.buf) < need {
			w.buf = make([]float32, need)
		}
		buf := w.buf[:need]
		w.msg = buf[:width]
		w.acc = buf[width : 2*width]
		w.scratch = buf[2*width:]
		if cap(w.qs) < qScratch {
			w.qs = make([]int8, qScratch)
		}
		w.qs = w.qs[:qScratch]
		if cap(w.acc32) < qAccWidth {
			w.acc32 = make([]int32, qAccWidth)
		}
		w.acc32 = w.acc32[:qAccWidth]
		if cap(w.qswar) < qAccWidth/4 {
			w.qswar = make([]uint64, qAccWidth/4)
		}
		w.qswar = w.qswar[:qAccWidth/4]
		w.err = nil
	}
	return ws
}

// Forward executes model m over a materialized graph following exactly the
// schedule and mapping the timing engine models: vertices are batched,
// scheduled into tasks and task groups (Algorithm 1), each task's
// aggregations run as linear reduce chains in mapping order, finalized
// results feed the update engines, and outputs are written back.
//
// This is the functional half of the simulator: its outputs are compared
// against the golden gnn.Forward reference in the test suite, which pins the
// dataflow's correctness (chained reduction over scheduled task order is
// equivalent to Eq. 1-2 up to float reassociation). Task groups (rings) are
// independent, so execution fans them across GOMAXPROCS workers — see
// ForwardParallel for the bit-identity guarantee.
func (s *SCALE) Forward(m *gnn.Model, g *graph.Graph, x *tensor.Matrix) ([]*tensor.Matrix, error) {
	return s.ForwardParallel(m, g, x, 0)
}

// ForwardParallel is Forward with an explicit worker budget (< 1 selects
// GOMAXPROCS, 1 runs serially on the calling goroutine). Each scheduling
// batch is a barrier — the compact scheduler's group buffers are recycled
// per batch — and within a batch workers claim whole task groups. Every
// vertex belongs to exactly one group and its reduce chain folds in-edges in
// the same mapping order regardless of which worker runs it, so the output
// is bit-identical for every worker count.
func (s *SCALE) ForwardParallel(m *gnn.Model, g *graph.Graph, x *tensor.Matrix, workers int) ([]*tensor.Matrix, error) {
	return s.ForwardContext(context.Background(), m, g, x, workers)
}

// ForwardContext is ForwardParallel under a context: cancellation is
// honoured at every scheduling-batch boundary (each batch is already a
// barrier, so no partial-batch state can leak), and a panic inside a worker's
// kernel chain is contained into a typed per-layer *fault.PanicError instead
// of tearing down the process. Outputs remain bit-identical to Forward's for
// any worker count when the call runs to completion. It only chains
// ForwardLayerContext, the executor's one forward primitive.
func (s *SCALE) ForwardContext(ctx context.Context, m *gnn.Model, g *graph.Graph, x *tensor.Matrix, workers int) ([]*tensor.Matrix, error) {
	h := x
	outs := make([]*tensor.Matrix, 0, len(m.Layers))
	for li := range m.Layers {
		out, err := s.ForwardLayerContext(ctx, m, li, g, h, nil, workers)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		h = out
	}
	return outs, nil
}

// localDegrees fills the state's recycled degree slice from g's in-degrees.
func (st *fwdState) localDegrees(g *graph.Graph) []int32 {
	n := g.NumVertices()
	if cap(st.degrees) < n {
		st.degrees = make([]int32, n)
	}
	degrees := st.degrees[:n]
	for v := range degrees {
		degrees[v] = int32(g.InDegree(v))
	}
	return degrees
}

// ForwardLayerContext executes exactly one layer of m — m.Layers[li] — over a
// materialized graph, with an optional per-vertex degree override. It is the
// executor's one forward primitive: ForwardContext chains it, sampled
// inference gives each layer its own graph, and a shard worker
// (internal/shard) runs it once per front-tier call over the subgraph of its
// owned vertices plus halo copies of their remote in-neighbors.
//
// degrees supplies the structural degree of each vertex as seen by message
// functions (EdgeContext.SrcDeg) and by the int8 tier's per-source
// coefficients. On a shard-local subgraph a halo vertex has no local
// in-edges, so its local in-degree is 0 even though message functions must
// see its global degree — passing the global degrees restores exactly the
// operand stream of an unsharded pass, which is what makes sharded fp32
// output bit-identical to single-process execution. nil selects g's own
// in-degrees; a negative degree is a typed graph error. The schedule always
// runs on g's own in-degrees, the work each vertex has locally: outputs
// never depend on it.
//
// A layer runs the int8 kernels exactly when gnn.LayerQuantized reports that
// its weights were quantized, which the session owning m decided once.
func (s *SCALE) ForwardLayerContext(ctx context.Context, m *gnn.Model, li int, g *graph.Graph, x *tensor.Matrix, degrees []int32, workers int) (*tensor.Matrix, error) {
	if li < 0 || li >= len(m.Layers) {
		return nil, fmt.Errorf("core: layer %d outside model of %d layers: %w", li, len(m.Layers), fault.ErrBadConfig)
	}
	layer := m.Layers[li]
	if x.Rows != g.NumVertices() {
		return nil, fmt.Errorf("core: features have %d rows, graph has %d vertices: %w", x.Rows, g.NumVertices(), fault.ErrBadShape)
	}
	if x.Cols != layer.InDim() {
		return nil, fmt.Errorf("core: features have %d cols, layer %d wants %d: %w", x.Cols, li, layer.InDim(), fault.ErrBadShape)
	}
	if degrees != nil && len(degrees) != g.NumVertices() {
		return nil, fmt.Errorf("core: %d degree overrides for %d vertices: %w", len(degrees), g.NumVertices(), fault.ErrBadShape)
	}
	for v, d := range degrees {
		if d < 0 {
			return nil, fmt.Errorf("core: vertex %d has degree override %d: %w", v, d, fault.ErrBadGraph)
		}
	}
	st, _ := s.fwdPool.Get().(*fwdState)
	if st == nil {
		st = &fwdState{}
	}
	defer s.fwdPool.Put(st)
	return s.forwardLayer(ctx, li, layer, g, degrees, x, st, workers)
}

// layerPass is one layer's execution plan, built once by forwardLayer and
// shared by its workers, which write only their own groups' seen/out rows.
// srcDeg is the degree message functions see (EdgeContext.SrcDeg). lin is
// non-nil for linear-sum layers, whose reduce chains run whole in-neighbour
// lists: in int8 when qpsrc is non-nil, in float32 otherwise.
type layerPass struct {
	layer              gnn.Layer
	g                  *graph.Graph
	srcDeg             []int32
	psrc, pdst, h, out *tensor.Matrix
	seen               []bool
	kind               gnn.ReduceKind
	qupd               gnn.QKernels
	lin                gnn.LinearAggregator
	qpsrc              *tensor.QSumMatrix
}

func (s *SCALE) forwardLayer(ctx context.Context, li int, layer gnn.Layer, g *graph.Graph, degrees []int32, h *tensor.Matrix, st *fwdState, workers int) (*tensor.Matrix, error) {
	cfg := s.cfg
	w := layer.Work()
	ringSize := cfg.RingSizeFor(w.WeightBytes, w.InDim, w.OutDim)
	nRings := cfg.NumRings(ringSize)
	numPEs := nRings * ringSize
	batch := cfg.EffectiveBatchSize()

	local := st.localDegrees(g)
	if degrees == nil {
		degrees = local
	}
	// Layers without quantized forms (e.g. custom specs) stay on float32.
	var qupd gnn.QKernels
	if gnn.LayerQuantized(layer) {
		qupd = layer.(gnn.QKernels)
	}
	psrc, pdst, err := gnn.PrepareLayerInto(&st.prep, layer, h, workers, qupd != nil)
	if err != nil {
		return nil, fmt.Errorf("core: layer %d: quantizing features: %w", li, err)
	}
	kind := layer.Reduce()
	width := kind.AccWidth(layer.MsgDim())
	out := tensor.NewMatrix(h.Rows, layer.OutDim())

	// Linear-sum layers run each vertex's reduce chain over its whole
	// in-neighbour list. On the int8 tier the chain is integer arithmetic:
	// each prepared source row (h, or a narrowing layer's h·W) is
	// pre-multiplied by its QSrcCoef and quantized under one shared scale
	// (once per layer, 4x less memory traffic per edge visit), chains sum
	// raw int8 rows in exact int32, and each vertex dequantizes its chain
	// once with gscale·QDstCoef before the usual finalize/update.
	lin, _ := layer.(gnn.LinearAggregator)
	var qpsrc *tensor.QSumMatrix
	if qupd != nil && lin != nil && psrc.Rows == g.NumVertices() {
		if st.qpsrc == nil {
			st.qpsrc = tensor.NewQSumMatrix(psrc.Rows, psrc.Cols)
		}
		st.qpsrc.Resize(psrc.Rows, psrc.Cols)
		if cap(st.qcoefs) < psrc.Rows {
			st.qcoefs = make([]float32, psrc.Rows)
		}
		coefs := st.qcoefs[:psrc.Rows]
		for v := range coefs {
			coefs[v] = lin.QSrcCoef(int(degrees[v]))
		}
		if err := tensor.ParallelQuantizeScaledInto(st.qpsrc, psrc, coefs, workers); err != nil {
			return nil, fmt.Errorf("core: layer %d: quantizing features: %w", li, err)
		}
		qpsrc = st.qpsrc
	}

	// The functional executor walks per-vertex work, so it needs
	// materialized vertex ids; the scheduler is reused across batches and
	// layers sharing a ring geometry (groups are consumed within each
	// batch iteration, before the next Schedule call recycles them).
	scheduler, err := st.scheduler(
		sched.Config{NumTasks: numPEs, NumGroups: nRings, Policy: cfg.Policy})
	if err != nil {
		return nil, fmt.Errorf("core: layer %d: %w", li, err)
	}
	if cap(st.seen) < g.NumVertices() {
		st.seen = make([]bool, g.NumVertices())
	}
	seen := st.seen[:g.NumVertices()]
	for i := range seen {
		seen[i] = false
	}
	nw := tensor.RowWorkers(nRings, workers)
	qScratch, qAccWidth := 0, 0
	if qupd != nil {
		qScratch = qupd.QUpdateScratch()
	}
	if qpsrc != nil {
		qAccWidth = qpsrc.Stride // padded, so QChain drains whole chunks
	}
	ws := st.sizeWorkers(nw, width, layer.UpdateScratch(), qScratch, qAccWidth)
	p := &layerPass{layer: layer, g: g, srcDeg: degrees, psrc: psrc, pdst: pdst, h: h, out: out,
		seen: seen, kind: kind, qupd: qupd, lin: lin, qpsrc: qpsrc}

	// One closure per layer: `groups` rebinds per batch. Workers claim
	// whole groups (rings) — disjoint vertex sets, so out/seen writes
	// never overlap across workers.
	var groups []*sched.TaskGroup
	run := func(wid, lo, hi int) {
		wk := &ws[wid]
		defer func() {
			if v := recover(); v != nil {
				wk.err = fault.Recovered(v)
			}
		}()
		for gi := lo; gi < hi && wk.err == nil; gi++ {
			wk.err = p.runGroup(groups[gi], wk)
		}
	}
	for _, vb := range st.batchesFor(g.NumVertices(), batch) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: layer %d: %w", li, err)
		}
		// Never the override: local degrees are bounded by g's edges.
		groups, err = scheduler.Schedule(local, vb)
		if err != nil {
			return nil, fmt.Errorf("core: layer %d: %w", li, err)
		}
		tensor.ParallelRows(len(groups), nw, run)
		for i := range ws {
			if ws[i].err != nil {
				return nil, fmt.Errorf("core: layer %d: %w", li, ws[i].err)
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("core: layer %d: vertex %d never scheduled", li, v)
		}
	}
	return out, nil
}

// runGroup executes one task group (ring): every vertex's reduce chain folds
// its in-edges in mapping order, then the finalized aggregation feeds
// UpdateInto directly into the output row. All scratch belongs to the
// calling worker, so concurrent groups share only read-only inputs and their
// disjoint output rows.
// A linear-sum layer (lin non-nil) runs the float32 chain as one
// tensor.AxpyChain over the whole in-neighbour list with EdgeCoef
// coefficients, bit-identical to one AccumulateEdge per edge; every other
// layer calls its fused AccumulateEdge kernel hop by hop.
// On the int8 tier (qupd non-nil) updates dispatch to QUpdateInto, and —
// for linear-sum layers (qpsrc non-nil) — the reduce chain is one
// tensor.QChain over the whole in-neighbour list, summing biased quantized
// source rows in exact integers, dequantized once per vertex with
// Scale·QDstCoef.
// Integer sums are order-independent, so int8 outputs keep the same
// worker-count bit-identity guarantee as float32.
func (p *layerPass) runGroup(group *sched.TaskGroup, wk *fwdWorker) error {
	layer, degrees, psrc, qpsrc := p.layer, p.srcDeg, p.psrc, p.qpsrc // per-edge operands
	msgDim := layer.MsgDim()
	for _, task := range group.Tasks {
		for _, v := range task.Vertices {
			if p.seen[v] {
				return fmt.Errorf("vertex %d scheduled twice", v)
			}
			p.seen[v] = true
			nbrs := p.g.InNeighbors(int(v))
			acc := wk.acc
			if qpsrc != nil {
				// Integer reduce chain: the source coefficient is
				// already folded into the quantized rows, the
				// destination coefficient folds into the single
				// dequantizing multiply below.
				acc32 := wk.acc32
				for i := range acc32 {
					acc32[i] = 0
				}
				tensor.QChain(acc32, wk.qswar, qpsrc, nbrs)
				c := qpsrc.Scale * p.lin.QDstCoef(len(nbrs))
				for i := range acc {
					acc[i] = c * float32(acc32[i])
				}
			} else if p.lin != nil {
				for i := range acc {
					acc[i] = 0
				}
				// Source degrees come from the degrees slice, as
				// SrcDeg does below.
				coefs := wk.coefs[:0]
				for _, u := range nbrs {
					coefs = append(coefs, p.lin.EdgeCoef(int(degrees[u]), len(nbrs)))
				}
				wk.coefs = coefs
				tensor.AxpyChain(acc, psrc, nbrs, coefs)
			} else {
				for i := range acc {
					acc[i] = 0
				}
				var pdstRow []float32
				if p.pdst != nil {
					pdstRow = p.pdst.Row(int(v))
				}
				// The reduce chain: sources stream through the ring
				// in mapping order, accumulating hop by hop.
				// SrcDeg comes from the degrees slice, not g.InDegree:
				// on an unsharded graph the two agree, and on a shard's
				// subgraph the slice carries global degrees so halo
				// sources normalize exactly as they would unsharded.
				for _, u := range nbrs {
					ctx := gnn.EdgeContext{
						Src: int(u), Dst: int(v),
						SrcDeg: int(degrees[u]), DstDeg: len(nbrs),
					}
					layer.AccumulateEdge(acc, psrc.Row(int(u)), pdstRow, wk.msg, ctx)
				}
			}
			agg := p.kind.Finalize(acc, msgDim, len(nbrs))
			if p.qupd != nil {
				p.qupd.QUpdateInto(p.out.Row(int(v)), p.h.Row(int(v)), agg, wk.scratch, wk.qs)
			} else {
				layer.UpdateInto(p.out.Row(int(v)), p.h.Row(int(v)), agg, wk.scratch)
			}
		}
	}
	return nil
}
