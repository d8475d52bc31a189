package micro

import (
	"fmt"

	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/sched"
	"scale/internal/tensor"
)

// GEMVUpdater is implemented by layers whose update phase is a single
// weight-stationary GEMV over the aggregated feature — the class the
// register-level update ring executes exactly (plain GCN). The returned
// matrix is Work().MsgDim×OutDim: the modelled, natural-order width.
type GEMVUpdater interface {
	UpdateWeights() *tensor.Matrix
}

// Pipeline executes one complete GNN layer on a segmented PE array at
// register level: Algorithm 1 scheduling, dispatch through the
// shift-register arrays, reduce chains around each ring, weight-stationary
// update traversal, and vertical write-back — the full §III dataflow, cycle
// by cycle. It exists to validate the task-level engine end to end and is
// practical for small graphs (its cost is O(cycles × PEs)).
type Pipeline struct {
	Seg      Segmentation
	RegDepth int
	Policy   sched.Policy
}

// NewPipeline builds a pipeline over a rows×cols array cut into rings.
func NewPipeline(rows, cols, ringSize int) (*Pipeline, error) {
	seg, err := NewSegmentation(rows, cols, ringSize)
	if err != nil {
		return nil, err
	}
	return &Pipeline{Seg: seg, RegDepth: 16, Policy: sched.DegreeVertexAware}, nil
}

// PipelineResult reports one layer's register-level execution.
type PipelineResult struct {
	// Outputs is the layer output (|V|×OutDim), numerically exact.
	Outputs *tensor.Matrix
	// Phase cycle counts.
	DispatchCycles, AggCycles, UpdateCycles, WritebackCycles int64
	// TotalCycles is the pipelined makespan: dispatch overlaps
	// aggregation (double buffering), update overlaps aggregation
	// (operator parallelism), write-back drains behind the update.
	TotalCycles int64
	// AggUtilization is the mean busy fraction of the aggregation MACs.
	AggUtilization float64
}

// RunLayer executes layer l over graph g with input features h. The layer's
// reduction must be a plain sum, linear in the input row
// (gnn.LinearAggregator), and its update a single GEMV (GEMVUpdater) — the
// register-level update ring's contract; richer models are validated at
// the functional level by internal/core.
//
// The pipeline runs the modelled dataflow, which aggregates in natural
// order at Work().MsgDim with the layer's factored coefficient: each
// message is SrcCoef(d_u)·h_u, the ring's aggregate is scaled by
// DstCoef(d_v), and the update ring applies W to that. A layer that
// applies W before its reduce chain on the CPU executor (gnn's
// narrower-width order; its MsgDim() is then OutDim, not W's rows) takes
// the update ring's GEMV outputs in UpdateInto; any other takes the
// aggregate and applies W itself.
func (pl *Pipeline) RunLayer(l gnn.Layer, g *graph.Graph, h *tensor.Matrix) (*PipelineResult, error) {
	if l.Reduce() != gnn.ReduceSum {
		return nil, fmt.Errorf("micro: pipeline supports sum reduction, layer uses %v", l.Reduce())
	}
	gu, ok := l.(GEMVUpdater)
	lin, linOK := l.(gnn.LinearAggregator)
	if !ok || !linOK {
		return nil, fmt.Errorf("micro: layer %q is not a linear single-GEMV updater", l.Name())
	}
	if h.Rows != g.NumVertices() || h.Cols != l.InDim() {
		return nil, fmt.Errorf("micro: features %dx%d do not match graph/layer", h.Rows, h.Cols)
	}
	w := gu.UpdateWeights()
	width := l.Work().MsgDim
	postW := l.MsgDim() != w.Rows

	nRings := pl.Seg.NumRings()
	ringSize := pl.Seg.RingSize
	groups, err := sched.Schedule(g.Degrees(), sched.AllVertices(g.NumVertices()),
		sched.Config{NumTasks: nRings * ringSize, NumGroups: nRings, Policy: pl.Policy})
	if err != nil {
		return nil, err
	}

	out := tensor.NewMatrix(g.NumVertices(), l.OutDim())
	scratch := make([]float32, l.UpdateScratch())
	res := &PipelineResult{Outputs: out}
	regs := ShiftRegisterArray{PEs: ringSize, Depth: pl.RegDepth}
	var aggActive, aggCapacity int64

	for _, group := range groups {
		ring := &Ring{S: ringSize, RegDepth: pl.RegDepth}
		var tasks []Task
		var vertices []int32
		maxPerPE := 0
		perPE := make([]int, ringSize)
		for _, task := range group.Tasks {
			for _, v := range task.Vertices {
				nbrs := g.InNeighbors(int(v))
				if len(nbrs) == 0 {
					continue // zero aggregation: output computed below
				}
				srcs := make([][]float32, 0, len(nbrs))
				for _, u := range nbrs {
					c := lin.SrcCoef(g.InDegree(int(u)))
					msg := make([]float32, width)
					for i, x := range h.Row(int(u)) {
						msg[i] = c * x
					}
					srcs = append(srcs, msg)
				}
				start := len(tasks) % ringSize
				for i := range srcs {
					pe := (start + i) % ringSize
					perPE[pe]++
				}
				tasks = append(tasks, Task{Dst: int(v), Sources: srcs})
				vertices = append(vertices, v)
			}
		}
		for _, c := range perPE {
			if c > maxPerPE {
				maxPerPE = c
			}
		}
		if len(tasks) == 0 {
			continue
		}
		agg, err := ring.SimulateAggregation(tasks, Sum)
		if err != nil {
			return nil, err
		}
		for ti, v := range vertices {
			tensor.Scale(lin.DstCoef(g.InDegree(int(v))), agg.Aggregated[ti])
		}
		dispatch, _ := regs.StreamCycles(maxPerPE * width)
		upd, err := ring.SimulateUpdate(agg.Aggregated, w)
		if err != nil {
			return nil, err
		}
		// Numerics: the layer's own update (activation included) applied
		// to the ring's aggregated features, or to the GEMV ring's outputs
		// when the layer applies W before aggregating; the GEMV ring's raw
		// outputs are cross-checked against VecMat in the micro tests.
		for ti, v := range vertices {
			in := agg.Aggregated[ti]
			if postW {
				in = upd.Outputs[ti]
			}
			l.UpdateInto(out.Row(int(v)), h.Row(int(v)), in, scratch)
		}
		if agg.Makespan > res.AggCycles {
			res.AggCycles = agg.Makespan
		}
		if upd.Makespan > res.UpdateCycles {
			res.UpdateCycles = upd.Makespan
		}
		if dispatch > res.DispatchCycles {
			res.DispatchCycles = dispatch
		}
		for _, a := range agg.ActiveCycles {
			aggActive += a
		}
		aggCapacity += agg.Makespan * int64(ringSize)
	}

	// Vertices with no in-edges still produce an update of the zero
	// aggregation (Eq. 2 semantics, matching the reference executor).
	zero := make([]float32, l.MsgDim())
	for v := 0; v < g.NumVertices(); v++ {
		if g.InDegree(v) == 0 {
			l.UpdateInto(out.Row(v), h.Row(v), zero, scratch)
		}
	}

	outPerPE := (g.NumVertices()*l.OutDim() + pl.Seg.NumPEs() - 1) / pl.Seg.NumPEs()
	res.WritebackCycles = pl.Seg.WritebackCycles(outPerPE)
	// Pipelining: dispatch preloads behind aggregation (double buffers);
	// the update ring consumes finished aggregations concurrently; the
	// write-back chains drain behind the update's tail.
	res.TotalCycles = max(max(res.DispatchCycles, res.AggCycles), res.UpdateCycles) +
		res.WritebackCycles
	if aggCapacity > 0 {
		res.AggUtilization = float64(aggActive) / float64(aggCapacity)
	} else {
		res.AggUtilization = 1
	}
	return res, nil
}
