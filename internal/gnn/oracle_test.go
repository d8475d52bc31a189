package gnn

import (
	"fmt"
	"math"

	"scale/internal/tensor"
)

// The direct, unfused Eq. 1 formulations of the built-in layers, kept as test
// oracles for the kernels the executors drive: refMessage is the per-edge
// message each AccumulateEdge fuses with its reduction, and refPrepare is the
// serial prepare that computes each prepared matrix in its own pass over h.

// refMessage writes the message of one edge into out, whose length is
// l.Reduce().AccWidth(l.MsgDim()). psrc and pdst are the prepared rows.
func refMessage(l Layer, out, psrc, pdst []float32, ctx EdgeContext) {
	switch l := l.(type) {
	case *gcnLayer:
		// The source-factor message; DstCoef applies once per vertex.
		c := l.SrcCoef(ctx.SrcDeg)
		for i, v := range psrc {
			out[i] = c * v
		}
	case *ggcnLayer:
		for i := 0; i < l.out; i++ {
			gate := sigmoid32(pdst[i] + psrc[i])
			out[i] = gate * psrc[l.out+i]
		}
	case *sagePoolLayer, *ginLayer, *sageMeanLayer:
		copy(out, psrc)
	case *gatLayer:
		refGATMessage(l, out, psrc, pdst)
	case *multiHeadGATLayer:
		off := 0
		for i, sub := range l.subs {
			w := sub.out + 1
			refGATMessage(sub, out[off:off+w], psrc[off:off+w], pdst[i:i+1])
			off += w
		}
	default:
		panic(fmt.Sprintf("refMessage: no oracle for %T", l))
	}
}

func refGATMessage(l *gatLayer, out, psrc, pdst []float32) {
	e := pdst[0] + psrc[l.out]
	if e < 0 {
		e *= 0.2 // LeakyReLU
	}
	w := float32(math.Exp(float64(e)))
	for i := 0; i < l.out; i++ {
		out[i] = w * psrc[i]
	}
	out[l.out] = w
}

// refPrepare returns the prepared source and destination matrices of l over
// h, one serial pass per matrix.
func refPrepare(l Layer, h *tensor.Matrix) (psrc, pdst *tensor.Matrix) {
	switch l := l.(type) {
	case *gcnLayer:
		if l.transformFirst() {
			l.ensure()
			return refTransform(h, l.w), nil
		}
		return h, nil
	case *sageMeanLayer:
		if l.transformFirst() {
			l.ensure()
			// W_bot is W's last in rows.
			wBot := tensor.NewMatrix(l.in, l.out)
			for r := 0; r < l.in; r++ {
				copy(wBot.Row(r), l.w.Row(l.in+r))
			}
			return refTransform(h, wBot), nil
		}
		return h, nil
	case *ginLayer:
		return h, nil
	case *sagePoolLayer:
		// The pooling MLP is one GEMM; its reference is the
		// one-worker Prepare.
		return l.Prepare(h, 1)
	case *ggcnLayer:
		l.ensure()
		// Rows are [B·h_u ; V·h_u] (gate term then value) and A·h_v.
		psrc = tensor.NewMatrix(h.Rows, 2*l.out)
		for i := 0; i < h.Rows; i++ {
			row := psrc.Row(i)
			tensor.VecMatInto(row[:l.out], h.Row(i), l.b)
			tensor.VecMatInto(row[l.out:], h.Row(i), l.v)
		}
		pdst = tensor.NewMatrix(h.Rows, l.out)
		for i := 0; i < h.Rows; i++ {
			tensor.VecMatInto(pdst.Row(i), h.Row(i), l.a)
		}
		return psrc, pdst
	case *gatLayer:
		return refGATSources(l, h), refGATDest(l, h)
	case *multiHeadGATLayer:
		psrc = tensor.NewMatrix(h.Rows, l.MsgDim())
		pdst = tensor.NewMatrix(h.Rows, l.heads)
		off := 0
		for i, sub := range l.subs {
			src, dst := refGATSources(sub, h), refGATDest(sub, h)
			for r := 0; r < h.Rows; r++ {
				copy(psrc.Row(r)[off:off+src.Cols], src.Row(r))
				pdst.Set(r, i, dst.At(r, 0))
			}
			off += src.Cols
		}
		return psrc, pdst
	}
	panic(fmt.Sprintf("refPrepare: no oracle for %T", l))
}

// refTransform returns h·w, one VecMatInto per row.
func refTransform(h, w *tensor.Matrix) *tensor.Matrix {
	z := tensor.NewMatrix(h.Rows, w.Cols)
	for i := 0; i < h.Rows; i++ {
		tensor.VecMatInto(z.Row(i), h.Row(i), w)
	}
	return z
}

// refGATSources rows are [z_u ; a_r·z_u] (out+1 wide).
func refGATSources(l *gatLayer, h *tensor.Matrix) *tensor.Matrix {
	l.ensure()
	p := tensor.NewMatrix(h.Rows, l.out+1)
	for i := 0; i < h.Rows; i++ {
		row := p.Row(i)
		z := row[:l.out]
		tensor.VecMatInto(z, h.Row(i), l.w)
		row[l.out] = tensor.Dot(l.ar, z)
	}
	return p
}

// refGATDest rows carry the scalar a_l·z_v, recomputing z = W·h.
func refGATDest(l *gatLayer, h *tensor.Matrix) *tensor.Matrix {
	l.ensure()
	p := tensor.NewMatrix(h.Rows, 1)
	z := make([]float32, l.out)
	for i := 0; i < h.Rows; i++ {
		tensor.VecMatInto(z, h.Row(i), l.w)
		p.Set(i, 0, tensor.Dot(l.al, z))
	}
	return p
}
