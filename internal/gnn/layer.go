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
// characterization (for the timing models). The executors drive every
// method that touches data: Prepare once per layer, then AccumulateEdge per
// edge and UpdateInto per vertex, both writing into caller-owned buffers so
// the per-vertex/per-edge hot loop performs no heap allocation.
type Layer interface {
	// Name identifies the layer kind (e.g. "gcn").
	Name() string
	// InDim and OutDim are the input/output feature lengths.
	InDim() int
	OutDim() int
	// MsgDim is the per-edge message feature length the executors
	// aggregate. A linear-sum layer that transforms its rows before the
	// reduce chain (see LinearAggregator) reports its output width here,
	// while Work().MsgDim keeps the width the accelerator models charge.
	MsgDim() int
	// Reduce is the aggregation reduction.
	Reduce() ReduceKind
	// Prepare applies the layer's per-vertex transforms (e.g. the SAGE
	// pooling MLP, G-GCN's gate terms, a narrowing layer's first linear
	// map) to every row of h. psrc holds one
	// prepared source row per vertex, the message input AccumulateEdge
	// reads; it may be h itself when no transform applies. pdst holds one
	// prepared destination row per vertex (e.g. G-GCN's A·h_v) or is nil.
	// Rows fan across up to `workers` goroutines (< 1 selects GOMAXPROCS,
	// 1 runs serially); each row is produced by the same serial kernel, so
	// the result is bit-identical for every worker count.
	Prepare(h *tensor.Matrix, workers int) (psrc, pdst *tensor.Matrix)
	// AccumulateEdge folds one edge's message (Eq. 1) into acc (length
	// Reduce().AccWidth(MsgDim())) without materializing it: psrc is the
	// prepared source row, pdst the prepared destination row (nil when
	// Prepare returns no pdst). msg is caller scratch of acc's length that
	// implementations may use when they cannot fuse message and reduction
	// (the custom-layer fallback); fused implementations ignore it. The
	// result must equal forming the message and then applying
	// Reduce().Accumulate, bit for bit. A LinearAggregator's message is its
	// source-factor term SrcCoef(SrcDeg)·psrc: the executor applies
	// DstCoef once per vertex, after the last edge.
	AccumulateEdge(acc, psrc, pdst, msg []float32, ctx EdgeContext)
	// UpdateInto combines a vertex's own input features with its finalized
	// aggregation (length MsgDim) into dst (length OutDim), using scratch
	// (length UpdateScratch()) and allocating nothing. When Prepare already
	// applied the update's first linear map, UpdateInto applies only what
	// follows it.
	UpdateInto(dst, hself, agg, scratch []float32)
	// UpdateScratch returns the scratch length UpdateInto requires.
	UpdateScratch() int
	// Work returns the per-unit operation counts for timing models.
	Work() LayerWork
}

// LinearAggregator is the optional capability of layers whose per-edge
// accumulation is LINEAR in the prepared source row with a coefficient that
// factors into one factor per endpoint: gcn's symmetric norm
// 1/√(d_u·d_v) = SrcCoef(d_u)·DstCoef(d_v), gin's and gs-mean's constant 1.
// Layers with a nonlinear per-edge term (g-gcn's sigmoid gate, gat's exp
// attention) or a max reduce (gs-pl) do not implement it, and neither do
// custom layers.
//
// The factored form is the layer's definition on both tiers. A vertex's
// aggregate is DstCoef(d_v)·Σ_u round(SrcCoef(d_u)·psrc_u), rounded in that
// order: AccumulateEdge adds SrcCoef(SrcDeg)·psrc, and every executor
// multiplies the accumulator by DstCoef(in-degree) once per vertex, before
// Finalize. That lets both executor tiers run a vertex's whole in-neighbour
// list as one reduce chain instead of one AccumulateEdge call per edge:
//
//   - float32: the executor scales each source row by its SrcCoef once per
//     layer, the chain is tensor.SumChain with no multiply (the same
//     products and sums in the same order as the per-edge loop), and each
//     vertex's sum gets one DstCoef multiply per element;
//   - int8: the source factor folds into the shared-scale quantized rows,
//     the integer chain sums them exactly, and the destination factor into
//     the single dequantizing multiply per vertex (see quantized.go).
//
// gin's and gs-mean's factors are 1, so neither tier scales their rows or
// sums: 1·x and x·1 are exact.
//
// Linearity also lets the chain run at the narrower width: Σ c_uv·(W·h_u)
// equals W·Σ c_uv·h_u up to rounding. On both tiers gcn and gs-mean apply
// their first linear map in Prepare when it narrows the row (narrows,
// models.go), so MsgDim is the output width and UpdateInto (QUpdateInto on
// the int8 tier) applies only what follows the map. gin keeps natural
// order: its self term (1+ε)·h_v passes through the same map, and
// UpdateInto receives h_v, not the prepared row, so the new order would
// need a second GEMV per vertex.
type LinearAggregator interface {
	SrcCoef(srcDeg int) float32
	DstCoef(dstDeg int) float32
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
