package dyn

import (
	"fmt"
	"math"

	"scale/internal/fault"
	"scale/internal/frame"
)

// OpKind identifies one mutation operation.
type OpKind uint8

const (
	// OpAddEdge inserts the directed aggregation edge Src → Dst.
	OpAddEdge OpKind = iota + 1
	// OpRemoveEdge removes one occurrence of the edge Src → Dst (the graph
	// is a multigraph; each removal cancels exactly one edge).
	OpRemoveEdge
	// OpAddVertex appends a new vertex carrying Features (length must equal
	// the dynamic graph's feature dimension). The new id is the current
	// vertex count at the moment the op applies, so later ops in the same
	// batch may reference it.
	OpAddVertex
)

// String names the op kind using the wire-format verbs.
func (k OpKind) String() string {
	switch k {
	case OpAddEdge:
		return "add_edge"
	case OpRemoveEdge:
		return "remove_edge"
	case OpAddVertex:
		return "add_vertex"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Mutation is one delta element of a batch.
type Mutation struct {
	Op       OpKind
	Src, Dst int32     // edge ops
	Features []float32 // add-vertex payload
}

// Batch is an ordered list of mutations applied atomically: either every op
// applies or none does (Graph.Apply rolls back on the first failure).
type Batch struct {
	Ops []Mutation
}

// Wire-format limits. A decoded header may claim anything; a count is held
// to these caps and to the bytes left in the frame before anything is
// allocated for it.
const (
	maxBatchOps   = 1 << 22
	maxFeatureDim = 1 << 20
	// minOpBytes is the smallest op on the wire: an add_vertex with no
	// features (kind and dim).
	minOpBytes = 5
)

// batchMagic tags the batched-delta binary format (SCD1, little endian):
// magic, int32 op count, then per op one uint8 kind followed by
// int32 src + int32 dst (edge ops) or int32 dim + dim float32s (add-vertex).
const batchMagic uint32 = 0x31444353 // "SCD1"

// EncodeBatch returns b in the batched-delta binary format, or a typed error
// for an op of unknown kind.
func EncodeBatch(b Batch) ([]byte, error) {
	size := 8
	for i, op := range b.Ops {
		switch op.Op {
		case OpAddEdge, OpRemoveEdge:
			size += 9
		case OpAddVertex:
			size += minOpBytes + 4*len(op.Features)
		default:
			return nil, fmt.Errorf("dyn: op %d has unknown kind %v: %w", i, op.Op, fault.ErrBadGraph)
		}
	}
	e := frame.NewEncoder(size)
	e.U32(batchMagic)
	e.U32(uint32(len(b.Ops)))
	for _, op := range b.Ops {
		e.U8(uint8(op.Op))
		if op.Op == OpAddVertex {
			e.U32(uint32(len(op.Features)))
			e.Float32s(op.Features)
		} else {
			e.U32(uint32(op.Src))
			e.U32(uint32(op.Dst))
		}
	}
	return e.Bytes(), nil
}

// DecodeBatch reads one whole frame written by EncodeBatch. Every failure —
// bad magic, implausible counts, unknown op kinds, negative vertex ids,
// non-finite features, truncation mid-op, trailing bytes — wraps
// fault.ErrBadGraph so callers classify it as bad input. The op count and
// each feature dim are held to their caps and to the bytes left before the
// op or feature slice exists.
//
// Decoding validates shape only; range checks against the live graph (vertex
// ids inside |V|, removals of existing edges, feature dimension) happen in
// Graph.Apply, which sees the graph the batch lands on.
func DecodeBatch(b []byte) (Batch, error) {
	d := frame.NewDecoder("dyn", b)
	d.Expect("magic", batchMagic)
	ops := make([]Mutation, d.Count(maxBatchOps, minOpBytes))
	for i := 0; i < len(ops) && d.Err() == nil; i++ {
		op := &ops[i]
		op.Op = OpKind(d.U8())
		switch op.Op {
		case OpAddEdge, OpRemoveEdge:
			op.Src, op.Dst = int32(d.U32()), int32(d.U32())
			if op.Src < 0 || op.Dst < 0 {
				d.Fail("op %d: negative vertex id (%d,%d)", i, op.Src, op.Dst)
			}
		case OpAddVertex:
			op.Features = d.Float32s(d.Count(maxFeatureDim, 4))
			for j, f := range op.Features {
				if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
					d.Fail("op %d: feature %d is not finite", i, j)
				}
			}
		default:
			d.Fail("op %d: unknown kind %d", i, op.Op)
		}
	}
	if err := d.Finish(); err != nil {
		return Batch{}, err
	}
	return Batch{Ops: ops}, nil
}
