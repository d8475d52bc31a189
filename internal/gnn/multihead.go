package gnn

import (
	"fmt"

	"scale/internal/tensor"
)

// multiHeadGATLayer is H independent GAT heads whose outputs concatenate
// (the standard multi-head attention formulation). Each head owns an
// out/H-wide transform and attention vectors; the SumNorm trick applies per
// head, so the accumulator carries H normalizers after the H·(out/H) message
// elements.
type multiHeadGATLayer struct {
	in, out, heads int
	headDim        int
	subs           []*gatLayer
}

func newMultiHeadGATLayer(seed int64, in, out, heads int, act bool) *multiHeadGATLayer {
	if heads < 1 {
		heads = 1
	}
	for out%heads != 0 {
		heads-- // out must split evenly across heads
	}
	l := &multiHeadGATLayer{in: in, out: out, heads: heads, headDim: out / heads}
	for h := 0; h < heads; h++ {
		l.subs = append(l.subs, newGATLayer(seed*31+int64(h), in, l.headDim, act))
	}
	return l
}

func (l *multiHeadGATLayer) Name() string { return fmt.Sprintf("gat-%dh", l.heads) }
func (l *multiHeadGATLayer) InDim() int   { return l.in }
func (l *multiHeadGATLayer) OutDim() int  { return l.out }

// MsgDim is the concatenation of the heads' message widths.
func (l *multiHeadGATLayer) MsgDim() int { return l.heads * (l.headDim + 1) }

// Reduce is a plain sum: each head's normalizer rides inside the message
// (per-head SumNorm is applied manually in UpdateInto), keeping the
// accumulator a flat commutative sum the ring dataflow handles unchanged.
func (l *multiHeadGATLayer) Reduce() ReduceKind { return ReduceSum }

func (l *multiHeadGATLayer) AccumulateEdge(acc, psrc, pdst, msg []float32, ctx EdgeContext) {
	off := 0
	for i, sub := range l.subs {
		w := sub.out + 1
		sub.AccumulateEdge(acc[off:off+w], psrc[off:off+w], pdst[i:i+1], nil, ctx)
		off += w
	}
}

// Prepare lays each head's prepared row and destination scalar directly into
// the concatenated matrices, computing each head's z once per vertex.
func (l *multiHeadGATLayer) Prepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix) {
	for _, sub := range l.subs {
		sub.ensure()
	}
	psrc := tensor.NewMatrix(h.Rows, l.MsgDim())
	pdst := tensor.NewMatrix(h.Rows, l.heads)
	tensor.ParallelRows(h.Rows, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			hrow := h.Row(i)
			row := psrc.Row(i)
			drow := pdst.Row(i)
			off := 0
			for hd, sub := range l.subs {
				z := row[off : off+sub.out]
				tensor.VecMatInto(z, hrow, sub.w)
				row[off+sub.out] = tensor.Dot(sub.ar, z)
				drow[hd] = tensor.Dot(sub.al, z)
				off += sub.out + 1
			}
		}
	})
	return psrc, pdst
}

// UpdateInto normalizes each head by its carried weight sum in the shared
// scratch buffer and writes the normalized head into its slot of dst, so
// the heads concatenate.
func (l *multiHeadGATLayer) UpdateInto(dst, hself, agg, scratch []float32) {
	srcOff, dstOff := 0, 0
	for _, sub := range l.subs {
		head := scratch[:sub.out+1]
		copy(head, agg[srcOff:srcOff+sub.out+1])
		norm := ReduceSumNorm.Finalize(head, sub.out, 0)
		sub.UpdateInto(dst[dstOff:dstOff+sub.out], hself, norm, nil)
		srcOff += sub.out + 1
		dstOff += sub.out
	}
}

func (l *multiHeadGATLayer) UpdateScratch() int { return l.headDim + 1 }

func (l *multiHeadGATLayer) Work() LayerWork {
	var w LayerWork
	for _, sub := range l.subs {
		sw := sub.Work()
		w.PreMACsPerVertex += sw.PreMACsPerVertex
		w.DstMACsPerVertex += sw.DstMACsPerVertex
		w.GateOpsPerEdge += sw.GateOpsPerEdge
		w.ReduceOpsPerEdge += sw.ReduceOpsPerEdge
		w.UpdateMACsPerVertex += sw.UpdateMACsPerVertex
		w.WeightBytes += sw.WeightBytes
	}
	w.InDim = l.in
	w.MsgDim = l.MsgDim()
	w.OutDim = l.out
	return w
}
