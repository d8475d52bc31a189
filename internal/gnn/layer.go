// Package gnn implements the message-passing GNN programming model the paper
// targets (DGL / PyTorch-Geometric style): a per-edge message function, a
// commutative-associative reduction, and a per-vertex update function
// (§II-A, Eq. 1–2). It provides the four evaluated models — GCN, G-GCN,
// GraphSAGE-Pool, GIN — plus GAT as the emerging-model extension, a golden
// reference executor, and the per-phase workload accounting every
// accelerator model consumes.
package gnn

import (
	"fmt"

	"scale/internal/tensor"
)

// ReduceKind identifies the aggregation reduction. All kinds are commutative
// and associative (SumNorm carries its normalizer in a trailing element), the
// permutation-invariance property (§III-B) that lets SCALE express any
// aggregation as a linear chain of reduce operations.
type ReduceKind int

const (
	// ReduceSum accumulates messages elementwise.
	ReduceSum ReduceKind = iota
	// ReduceMean accumulates and divides by the in-degree on finalize.
	ReduceMean
	// ReduceMax keeps the elementwise maximum.
	ReduceMax
	// ReduceSumNorm accumulates MsgDim+1 elements where the trailing
	// element is a positive weight; finalize divides by it (softmax-style
	// normalized attention, used by GAT).
	ReduceSumNorm
)

// String names the reduce kind.
func (k ReduceKind) String() string {
	switch k {
	case ReduceSum:
		return "sum"
	case ReduceMean:
		return "mean"
	case ReduceMax:
		return "max"
	case ReduceSumNorm:
		return "sumnorm"
	}
	return fmt.Sprintf("ReduceKind(%d)", int(k))
}

// AccWidth returns the accumulator width for a message dimension msgDim.
func (k ReduceKind) AccWidth(msgDim int) int {
	if k == ReduceSumNorm {
		return msgDim + 1
	}
	return msgDim
}

// Accumulate folds msg into acc in place. Both have AccWidth length.
func (k ReduceKind) Accumulate(acc, msg []float32) {
	switch k {
	case ReduceMax:
		tensor.MaxElems(acc, msg)
	default:
		for i, v := range msg {
			acc[i] += v
		}
	}
}

// Finalize converts a raw accumulator into the aggregation result of width
// msgDim. degree is the vertex in-degree (0 yields a zero vector).
func (k ReduceKind) Finalize(acc []float32, msgDim, degree int) []float32 {
	switch k {
	case ReduceMean:
		out := acc[:msgDim]
		if degree > 0 {
			tensor.Scale(1/float32(degree), out)
		}
		return out
	case ReduceSumNorm:
		out := acc[:msgDim]
		if norm := acc[msgDim]; norm != 0 {
			tensor.Scale(1/norm, out)
		}
		return out
	default:
		return acc[:msgDim]
	}
}

// EdgeContext carries the structural inputs a message function may use.
type EdgeContext struct {
	Src, Dst       int
	SrcDeg, DstDeg int
}

// Layer is one message-passing layer. Implementations provide the semantics
// (for the golden reference and the functional simulator) and the workload
// characterization (for the timing models).
//
// The contract has two tiers. The allocating methods (Update, the
// PrepareSources/PrepareDest pair) are the compatibility surface: direct
// translations of Eq. 1–2 that allocate their results. The in-place kernels
// (AccumulateEdge, UpdateInto with UpdateScratch-sized caller scratch) are
// the execution surface the executors drive: they write into caller-owned
// buffers so the per-vertex/per-edge hot loop performs no heap allocation,
// and every allocating method is a thin wrapper over its kernel.
type Layer interface {
	// Name identifies the layer kind (e.g. "gcn").
	Name() string
	// InDim and OutDim are the input/output feature lengths.
	InDim() int
	OutDim() int
	// MsgDim is the per-edge message feature length.
	MsgDim() int
	// Reduce is the aggregation reduction.
	Reduce() ReduceKind
	// PrepareSources applies any per-source-vertex neural transform
	// (e.g. the SAGE pooling MLP) and returns per-vertex message inputs,
	// one row per vertex, MsgDim columns. Implementations may return h
	// itself when no transform applies.
	PrepareSources(h *tensor.Matrix) *tensor.Matrix
	// PrepareDest applies any per-destination-vertex transform used by
	// message formation (e.g. G-GCN's gate term A·h_v); may return nil.
	PrepareDest(h *tensor.Matrix) *tensor.Matrix
	// MessageInto writes the message for one edge into out, whose length
	// is Reduce().AccWidth(MsgDim()). psrc is the prepared source row,
	// pdst the prepared destination row (nil unless PrepareDest returns
	// non-nil).
	MessageInto(out, psrc, pdst []float32, ctx EdgeContext)
	// AccumulateEdge fuses MessageInto and Reduce().Accumulate into one
	// pass over the accumulator: acc (length Reduce().AccWidth(MsgDim()))
	// absorbs the edge's message without materializing it. msg is caller
	// scratch of the same length that implementations may use when they
	// cannot fuse (the custom-layer fallback); fused implementations
	// ignore it. Must be bit-identical to MessageInto followed by
	// Accumulate.
	AccumulateEdge(acc, psrc, pdst, msg []float32, ctx EdgeContext)
	// Update combines a vertex's own input features with its finalized
	// aggregation (length MsgDim) into the output row (length OutDim).
	// Allocating wrapper over UpdateInto.
	Update(hself, agg []float32) []float32
	// UpdateInto writes Update's result into dst (length OutDim) using
	// scratch (length UpdateScratch()) without allocating.
	UpdateInto(dst, hself, agg, scratch []float32)
	// UpdateScratch returns the scratch length UpdateInto requires.
	UpdateScratch() int
	// Work returns the per-unit operation counts for timing models.
	Work() LayerWork
}

// LinearAggregator is the optional capability of layers whose per-edge
// accumulation is LINEAR in the prepared source row with a SEPARABLE
// coefficient: gcn's symmetric norm, gin's and gs-mean's constant 1. Layers
// with a nonlinear per-edge term (g-gcn's sigmoid gate, gat's exp attention)
// or a max reduce (gs-pl) do not implement it, and neither do custom layers.
// Both executor tiers use it to run a vertex's whole in-neighbour list as one
// reduce chain instead of one AccumulateEdge call per edge:
//
//   - float32: AccumulateEdge is exactly acc[j] += EdgeCoef(srcDeg,
//     dstDeg)·psrc[j], the same float32 product and sum, so
//     tensor.AxpyChain over the list's coefficients is bit-identical to the
//     per-edge loop;
//   - int8: the coefficient factors as QSrcCoef(srcDeg)·QDstCoef(dstDeg) up
//     to float rounding, which lets the integer chain fold the source factor
//     into the quantized rows and apply the destination factor once per
//     vertex (see quantized.go).
type LinearAggregator interface {
	EdgeCoef(srcDeg, dstDeg int) float32
	QSrcCoef(srcDeg int) float32
	QDstCoef(dstDeg int) float32
}

// preparer is the internal parallel-prepare hook the built-in layers
// implement: prepare computes both prepared matrices in one pass over h,
// fanning rows across up to `workers` goroutines. PrepareLayer falls back to
// the serial PrepareSources/PrepareDest pair for layers without it (custom
// specs).
type preparer interface {
	prepare(h *tensor.Matrix, workers int) (psrc, pdst *tensor.Matrix)
}

// PrepareLayer computes the layer's prepared source and destination matrices
// for all vertices, parallelizing across up to `workers` goroutines when the
// layer supports it (workers < 1 selects GOMAXPROCS, 1 runs serially). The
// result is bit-identical for every worker count: rows are partitioned, and
// each row is produced by the same serial kernel.
func PrepareLayer(l Layer, h *tensor.Matrix, workers int) (psrc, pdst *tensor.Matrix) {
	if p, ok := l.(preparer); ok {
		return p.prepare(h, workers)
	}
	return l.PrepareSources(h), l.PrepareDest(h)
}

// updateAlloc implements the allocating Update contract in terms of a
// layer's UpdateInto kernel.
func updateAlloc(l Layer, hself, agg []float32) []float32 {
	dst := make([]float32, l.OutDim())
	var scratch []float32
	if n := l.UpdateScratch(); n > 0 {
		scratch = make([]float32, n)
	}
	l.UpdateInto(dst, hself, agg, scratch)
	return dst
}

// Model is a stack of layers with a human-readable name.
type Model struct {
	ModelName string
	Layers    []Layer
}

// Name returns the model name ("gcn", "ggcn", "gs-pl", "gin", "gat").
func (m *Model) Name() string { return m.ModelName }

// InDim returns the input feature length of the first layer.
func (m *Model) InDim() int { return m.Layers[0].InDim() }

// OutDim returns the output feature length of the last layer.
func (m *Model) OutDim() int { return m.Layers[len(m.Layers)-1].OutDim() }

// Dims returns the feature-length chain, e.g. [1433, 16, 7].
func (m *Model) Dims() []int {
	dims := []int{m.InDim()}
	for _, l := range m.Layers {
		dims = append(dims, l.OutDim())
	}
	return dims
}

// MessagePassing reports whether the model requires explicit edge-wise
// operations beyond SpMM (Table I: AWB-GCN and GCNAX cannot express these).
func (m *Model) MessagePassing() bool {
	for _, l := range m.Layers {
		w := l.Work()
		if w.GateOpsPerEdge > 0 || w.MLPUpdate || l.Reduce() != ReduceSum {
			return true
		}
	}
	return false
}

// String summarizes the model.
func (m *Model) String() string {
	return fmt.Sprintf("Model(%s %v)", m.ModelName, m.Dims())
}
