package gnn

import (
	"fmt"
	"math"

	"scale/internal/tensor"
)

// Quantized execution tier (DESIGN §4j). Only a Session quantizes: an int8
// session calls QuantizeModel once when it materializes its model, never per
// request, and each layer that supports int8 execution keeps its quantized
// weight form from then on. The executors run a layer's int8 kernels exactly
// when LayerQuantized reports that form present:
//
//   - QKernels is the update-side capability: QUpdateInto replaces the
//     update GEMVs with int8 GEMVs (quantize the activation row, int32-dot
//     against the transposed quantized weights, dequantize at the output
//     boundary). All seven built-in layers implement it.
//   - LinearAggregator (layer.go) is the aggregation-side capability of the
//     linear-sum layers, gcn, gin and gs-mean, whose edge coefficient
//     separates as QSrcCoef(deg u)·QDstCoef(deg v): the executor folds each
//     row's source factor into a shared-scale biased-byte quantization of
//     the prepared source matrix (tensor.ParallelQuantizeScaledInto),
//     reduce chains sum raw byte rows in exact packed integer arithmetic
//     (tensor.AccRowChain — no multiply, no convert, eight columns per
//     64-bit add), and each vertex dequantizes its chain once with
//     Scale·QDstCoef. The other layers keep float32 edge math and run only
//     their prepare/update GEMMs int8.
//
// Integer chain accumulation is exact and associative, so the quantized
// aggregation path keeps the serial-vs-N-workers bit-identity contract by
// construction — stronger than the float tier's fold-order argument.
//
// Custom layers (CustomSpec) implement neither interface and transparently
// run float32 inside an otherwise quantized model.

// QKernels is the optional quantized-update capability of a Layer.
type QKernels interface {
	// QuantizeWeights materializes the int8 weight form (idempotent,
	// concurrency-safe). It reports tensor.ErrNonFinite-wrapped failures;
	// on error the layer stays float32.
	QuantizeWeights() error
	// Quantized reports whether the quantized weight form is present. Only
	// valid after a QuantizeWeights call has returned.
	Quantized() bool
	// QUpdateScratch returns the int8 scratch length QUpdateInto requires.
	QUpdateScratch() int
	// QUpdateInto is UpdateInto on the int8 weight form: same shapes, same
	// float scratch contract, plus caller-owned int8 scratch qs of length
	// QUpdateScratch(). Only valid when Quantized() is true.
	QUpdateInto(dst, hself, agg, scratch []float32, qs []int8)
}

// qPreparer mirrors Layer.Prepare for the int8 tier: qprepare computes the
// prepared matrices with the layer's per-vertex GEMVs running on the
// quantized weights. Outputs remain float32 (message math consumes them).
type qPreparer interface {
	qprepare(h *tensor.Matrix, workers int) (psrc, pdst *tensor.Matrix)
}

// QuantizeModel materializes the quantized weight form of every layer that
// supports it. Layers without QKernels (custom specs) are skipped and will
// execute float32 inside the quantized forward pass. Safe to call multiple
// times and from concurrent sessions; quantization happens once per layer.
func QuantizeModel(m *Model) error {
	for i, l := range m.Layers {
		qk, ok := l.(QKernels)
		if !ok {
			continue
		}
		if err := qk.QuantizeWeights(); err != nil {
			return fmt.Errorf("gnn: quantize layer %d (%s): %w", i, l.Name(), err)
		}
	}
	return nil
}

// LayerQuantized reports whether l will dispatch to int8 kernels.
func LayerQuantized(l Layer) bool {
	qk, ok := l.(QKernels)
	return ok && qk.Quantized()
}

// zPreparer is implemented by the layers that aggregate at the narrower
// width (gcn, gs-mean): prepareInto is Prepare writing the transformed rows
// into a caller-owned matrix, resized to fit (a new one when z is nil).
type zPreparer interface {
	prepareInto(z, h *tensor.Matrix, workers int) (psrc, pdst *tensor.Matrix)
}

// PrepareLayerPrecision is Layer.Prepare with a precision switch: when
// quantized is true and the layer has both a quantized weight form and a
// quantized prepare path, the per-vertex prepare GEMVs run int8. Bit-
// identical across worker counts in both modes (rows are partitioned; each
// row is produced by the same serial kernel).
func PrepareLayerPrecision(l Layer, h *tensor.Matrix, workers int, quantized bool) (psrc, pdst *tensor.Matrix) {
	return PrepareLayerInto(nil, l, h, workers, quantized)
}

// PrepareLayerInto is PrepareLayerPrecision for a caller that recycles the
// prepared matrix across calls: a layer that transforms its rows before the
// reduce chain writes z = h·W into z, resized to fit, and returns z as
// psrc; every other layer leaves z untouched. A nil z allocates.
func PrepareLayerInto(z *tensor.Matrix, l Layer, h *tensor.Matrix, workers int, quantized bool) (psrc, pdst *tensor.Matrix) {
	if quantized && LayerQuantized(l) {
		if qp, ok := l.(qPreparer); ok {
			return qp.qprepare(h, workers)
		}
	}
	if zp, ok := l.(zPreparer); ok {
		return zp.prepareInto(z, h, workers)
	}
	return l.Prepare(h, workers)
}

// mustQuantizeRow quantizes an activation row into q, panicking on
// non-finite values. Interior kernels panic by design (the executors contain
// panics into fault.PanicError); loaders and request validation reject
// non-finite features long before this point.
func mustQuantizeRow(q []int8, row []float32) float32 {
	s, err := tensor.QuantizeRowInto(q, row)
	if err != nil {
		panic(fmt.Sprintf("gnn: quantize activation row: %v", err))
	}
	return s
}

// ---------------------------------------------------------------------------
// GCN: update is a single GEMV; aggregation is linear (norm · h_u).

func (l *gcnLayer) QuantizeWeights() error {
	l.qonce.Do(func() {
		l.ensure()
		l.qwT, l.qerr = tensor.QuantizeTransposed(l.w)
	})
	return l.qerr
}

func (l *gcnLayer) Quantized() bool     { return l.qwT != nil }
func (l *gcnLayer) QUpdateScratch() int { return l.in }

func (l *gcnLayer) QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) {
	q := qs[:l.in]
	s := mustQuantizeRow(q, agg)
	tensor.QGemvInto(dst, q, s, l.qwT)
	maybeReLU(l.act, dst)
}

// The GCN symmetric norm 1/√(d_u·d_v) (degrees floored at 1 per side, as in
// gcnNorm) separates exactly into per-endpoint factors.
func (l *gcnLayer) QSrcCoef(srcDeg int) float32 { return invSqrtDeg(srcDeg) }
func (l *gcnLayer) QDstCoef(dstDeg int) float32 { return invSqrtDeg(dstDeg) }

func invSqrtDeg(d int) float32 {
	if d < 1 {
		d = 1
	}
	return float32(1 / math.Sqrt(float64(d)))
}

// ---------------------------------------------------------------------------
// G-GCN: the three prepare GEMVs (B·h, V·h, A·h) and the update GEMV (U·h)
// run int8; the per-edge sigmoid gate keeps float aggregation.

func (l *ggcnLayer) QuantizeWeights() error {
	l.qonce.Do(func() {
		l.ensure()
		quantize := func(m *tensor.Matrix) *tensor.QMatrix {
			if l.qerr != nil {
				return nil
			}
			q, err := tensor.QuantizeTransposed(m)
			l.qerr = err
			return q
		}
		l.qaT, l.qbT, l.quT, l.qvT = quantize(l.a), quantize(l.b), quantize(l.u), quantize(l.v)
	})
	return l.qerr
}

func (l *ggcnLayer) Quantized() bool     { return l.qvT != nil }
func (l *ggcnLayer) QUpdateScratch() int { return l.in }

func (l *ggcnLayer) QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) {
	q := qs[:l.in]
	s := mustQuantizeRow(q, hself)
	tensor.QGemvInto(dst, q, s, l.quT)
	for i := range dst {
		dst[i] += agg[i]
	}
	maybeReLU(l.act, dst)
}

func (l *ggcnLayer) qprepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix) {
	psrc := tensor.NewMatrix(h.Rows, 2*l.out)
	pdst := tensor.NewMatrix(h.Rows, l.out)
	nw := tensor.RowWorkers(h.Rows, workers)
	qbuf := make([]int8, nw*l.in)
	tensor.ParallelRows(h.Rows, workers, func(w, lo, hi int) {
		q := qbuf[w*l.in : (w+1)*l.in]
		for i := lo; i < hi; i++ {
			s := mustQuantizeRow(q, h.Row(i))
			row := psrc.Row(i)
			tensor.QGemvInto(row[:l.out], q, s, l.qbT)
			tensor.QGemvInto(row[l.out:], q, s, l.qvT)
			tensor.QGemvInto(pdst.Row(i), q, s, l.qaT)
		}
	})
	return psrc, pdst
}

// ---------------------------------------------------------------------------
// GraphSAGE-Pool: the pooling MLP becomes a blocked int8 GEMM; the max
// reduce keeps float aggregation; the update GEMV runs int8.

func (l *sagePoolLayer) QuantizeWeights() error {
	l.qonce.Do(func() {
		l.ensure()
		l.qwpT, l.qerr = tensor.QuantizeTransposed(l.wp)
		if l.qerr == nil {
			l.qwT, l.qerr = tensor.QuantizeTransposed(l.w)
		}
	})
	return l.qerr
}

func (l *sagePoolLayer) Quantized() bool     { return l.qwT != nil }
func (l *sagePoolLayer) QUpdateScratch() int { return l.in + l.pool }

func (l *sagePoolLayer) QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) {
	cat := scratch[:l.in+l.pool]
	tensor.ConcatInto(cat, hself, agg)
	q := qs[:l.in+l.pool]
	s := mustQuantizeRow(q, cat)
	tensor.QGemvInto(dst, q, s, l.qwT)
	maybeReLU(l.act, dst)
}

func (l *sagePoolLayer) qprepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix) {
	qh := tensor.NewQMatrix(h.Rows, h.Cols)
	if err := tensor.QuantizeInto(qh, h); err != nil {
		panic(fmt.Sprintf("gnn: quantize features: %v", err))
	}
	p := tensor.NewMatrix(h.Rows, l.pool)
	tensor.ParallelQMatMulInto(p, qh, l.qwpT, workers)
	tensor.ParallelRows(h.Rows, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := p.Row(i)
			for j, bv := range l.bp {
				row[j] += bv
			}
			tensor.ReLU(row)
		}
	})
	return p, nil
}

// ---------------------------------------------------------------------------
// GIN: both MLP GEMVs run int8 (quantize x, GEMV W1, ReLU, re-quantize the
// hidden row, GEMV W2); aggregation is a plain sum — linear.

func (l *ginLayer) QuantizeWeights() error {
	l.qonce.Do(func() {
		l.ensure()
		l.qw1T, l.qerr = tensor.QuantizeTransposed(l.w1)
		if l.qerr == nil {
			l.qw2T, l.qerr = tensor.QuantizeTransposed(l.w2)
		}
	})
	return l.qerr
}

func (l *ginLayer) Quantized() bool { return l.qw2T != nil }

// QUpdateScratch sizes one buffer reused for both quantized rows: x (in)
// first, then — after x is consumed by the W1 GEMV — the hidden row (out).
func (l *ginLayer) QUpdateScratch() int {
	if l.in > l.out {
		return l.in
	}
	return l.out
}

func (l *ginLayer) QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) {
	x := scratch[:l.in]
	hidden := scratch[l.in : l.in+l.out]
	for i := range x {
		x[i] = (1+l.eps)*hself[i] + agg[i]
	}
	qx := qs[:l.in]
	s := mustQuantizeRow(qx, x)
	tensor.QGemvInto(hidden, qx, s, l.qw1T)
	tensor.ReLU(hidden)
	qh := qs[:l.out]
	s = mustQuantizeRow(qh, hidden)
	tensor.QGemvInto(dst, qh, s, l.qw2T)
	maybeReLU(l.act, dst)
}

// GIN's aggregation is an unweighted sum.
func (l *ginLayer) QSrcCoef(int) float32 { return 1 }
func (l *ginLayer) QDstCoef(int) float32 { return 1 }

// ---------------------------------------------------------------------------
// GAT: z = W·h runs int8 in prepare; attention scores, the exp-weighted
// aggregation, and the weightless update stay float.

func (l *gatLayer) QuantizeWeights() error {
	l.qonce.Do(func() {
		l.ensure()
		l.qwT, l.qerr = tensor.QuantizeTransposed(l.w)
	})
	return l.qerr
}

func (l *gatLayer) Quantized() bool     { return l.qwT != nil }
func (l *gatLayer) QUpdateScratch() int { return 0 }

func (l *gatLayer) QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) {
	l.UpdateInto(dst, hself, agg, scratch)
}

func (l *gatLayer) qprepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix) {
	psrc := tensor.NewMatrix(h.Rows, l.out+1)
	pdst := tensor.NewMatrix(h.Rows, 1)
	nw := tensor.RowWorkers(h.Rows, workers)
	qbuf := make([]int8, nw*l.in)
	tensor.ParallelRows(h.Rows, workers, func(w, lo, hi int) {
		q := qbuf[w*l.in : (w+1)*l.in]
		for i := lo; i < hi; i++ {
			s := mustQuantizeRow(q, h.Row(i))
			row := psrc.Row(i)
			z := row[:l.out]
			tensor.QGemvInto(z, q, s, l.qwT)
			row[l.out] = tensor.Dot(l.ar, z)
			pdst.Set(i, 0, tensor.Dot(l.al, z))
		}
	})
	return psrc, pdst
}

// ---------------------------------------------------------------------------
// Multi-head GAT: each head's z GEMV runs int8 on the shared quantized input
// row; everything downstream stays float, as in the single-head layer.

func (l *multiHeadGATLayer) QuantizeWeights() error {
	for _, sub := range l.subs {
		if err := sub.QuantizeWeights(); err != nil {
			return err
		}
	}
	return nil
}

func (l *multiHeadGATLayer) Quantized() bool {
	for _, sub := range l.subs {
		if !sub.Quantized() {
			return false
		}
	}
	return true
}

func (l *multiHeadGATLayer) QUpdateScratch() int { return 0 }

func (l *multiHeadGATLayer) QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) {
	l.UpdateInto(dst, hself, agg, scratch)
}

func (l *multiHeadGATLayer) qprepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix) {
	psrc := tensor.NewMatrix(h.Rows, l.MsgDim())
	pdst := tensor.NewMatrix(h.Rows, l.heads)
	nw := tensor.RowWorkers(h.Rows, workers)
	qbuf := make([]int8, nw*l.in)
	tensor.ParallelRows(h.Rows, workers, func(w, lo, hi int) {
		q := qbuf[w*l.in : (w+1)*l.in]
		for i := lo; i < hi; i++ {
			s := mustQuantizeRow(q, h.Row(i))
			row := psrc.Row(i)
			drow := pdst.Row(i)
			off := 0
			for hd, sub := range l.subs {
				z := row[off : off+sub.out]
				tensor.QGemvInto(z, q, s, sub.qwT)
				row[off+sub.out] = tensor.Dot(sub.ar, z)
				drow[hd] = tensor.Dot(sub.al, z)
				off += sub.out + 1
			}
		}
	})
	return psrc, pdst
}

// ---------------------------------------------------------------------------
// GraphSAGE-Mean: linear sum aggregation + one int8 update GEMV over the
// concatenated [h_v ; mean] row.

func (l *sageMeanLayer) QuantizeWeights() error {
	l.qonce.Do(func() {
		l.ensure()
		l.qwT, l.qerr = tensor.QuantizeTransposed(l.w)
	})
	return l.qerr
}

func (l *sageMeanLayer) Quantized() bool     { return l.qwT != nil }
func (l *sageMeanLayer) QUpdateScratch() int { return 2 * l.in }

func (l *sageMeanLayer) QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) {
	cat := scratch[:2*l.in]
	tensor.ConcatInto(cat, hself, agg)
	q := qs[:2*l.in]
	s := mustQuantizeRow(q, cat)
	tensor.QGemvInto(dst, q, s, l.qwT)
	maybeReLU(l.act, dst)
}

// GraphSAGE-Mean's aggregation is an unweighted sum (the mean divide lives
// in ReduceMean's finalize, which runs after dequantization).
func (l *sageMeanLayer) QSrcCoef(int) float32 { return 1 }
func (l *sageMeanLayer) QDstCoef(int) float32 { return 1 }
