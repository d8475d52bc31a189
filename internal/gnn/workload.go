package gnn

import "scale/internal/graph"

// LayerWork characterizes one layer's hardware workload in per-unit scalar
// operation counts. The timing models of SCALE and every baseline consume
// these numbers; they are the common currency that makes the comparison fair
// (§VI equalizes MACs, frequency, and bandwidth across accelerators).
type LayerWork struct {
	InDim, MsgDim, OutDim int

	// PreMACsPerVertex is the source-side neural transform cost (MACs per
	// vertex): the SAGE pooling MLP, G-GCN's B·h_u and V·h_u, GAT's W·h_u.
	PreMACsPerVertex int64
	// DstMACsPerVertex is the destination-side transform cost (MACs per
	// vertex) used by message formation (e.g. G-GCN's A·h_v).
	DstMACsPerVertex int64
	// GateOpsPerEdge is the per-edge scalar work of message formation
	// beyond the reduction itself (gating, attention scores, scaling).
	GateOpsPerEdge int64
	// ReduceOpsPerEdge is the per-edge reduction cost (one op per
	// accumulator element).
	ReduceOpsPerEdge int64
	// UpdateMACsPerVertex is the destination-side update cost (MACs per
	// vertex): the weight GEMV, MLP layers, self-term and activation.
	UpdateMACsPerVertex int64
	// WeightBytes is the total weight footprint of the layer (float32).
	WeightBytes int64
	// MLPUpdate marks updates that are multi-layer (not a single GEMM),
	// which SpMM/GEMM-only accelerators cannot fuse (Table I).
	MLPUpdate bool
}

// AggOps returns the total aggregation-phase scalar ops for a graph profile:
// per-edge message formation plus reduction.
func (w LayerWork) AggOps(p *graph.Profile) int64 {
	e := p.NumEdges()
	return e*(w.GateOpsPerEdge+w.ReduceOpsPerEdge) + int64(p.NumVertices())*(w.PreMACsPerVertex+w.DstMACsPerVertex)
}

// UpdateOps returns the total update-phase MACs for a graph profile.
func (w LayerWork) UpdateOps(p *graph.Profile) int64 {
	return int64(p.NumVertices()) * w.UpdateMACsPerVertex
}

// TotalOps returns aggregation + update scalar ops.
func (w LayerWork) TotalOps(p *graph.Profile) int64 {
	return w.AggOps(p) + w.UpdateOps(p)
}

// DataVolume breaks a model execution's data footprint into the categories
// of Fig. 1(c): graph structure, input features, weights, intermediate
// (aggregated features and messages held between phases), and outputs.
// All byte counts assume float32 features and int32 indices.
type DataVolume struct {
	GraphBytes        int64
	InputBytes        int64
	WeightBytes       int64
	IntermediateBytes int64
	OutputBytes       int64
}

// Total sums all categories.
func (d DataVolume) Total() int64 {
	return d.GraphBytes + d.InputBytes + d.WeightBytes + d.IntermediateBytes + d.OutputBytes
}

// VolumeOf computes the data volume of running model m over profile p.
// Intermediate data covers per-layer aggregation results plus inter-layer
// activations — everything produced and consumed on-chip between operators.
func VolumeOf(m *Model, p *graph.Profile) DataVolume {
	var d DataVolume
	v := int64(p.NumVertices())
	e := p.NumEdges()
	d.GraphBytes = 4 * (v + 1 + e) // CSR row pointers + column indices
	d.InputBytes = 4 * v * int64(m.InDim())
	d.OutputBytes = 4 * v * int64(m.OutDim())
	for i, l := range m.Layers {
		w := l.Work()
		d.WeightBytes += w.WeightBytes
		// Aggregated feature per vertex, per layer.
		d.IntermediateBytes += 4 * v * int64(w.MsgDim)
		// Prepared source transforms materialized between operators.
		if w.PreMACsPerVertex > 0 {
			d.IntermediateBytes += 4 * v * int64(w.MsgDim)
		}
		// Activations between layers are intermediate, not model output.
		if i < len(m.Layers)-1 {
			d.IntermediateBytes += 4 * v * int64(l.OutDim())
		}
	}
	return d
}
