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
//     (tensor.QChain — no multiply, no convert, eight columns per 64-bit
//     add, four rows per sweep), and each vertex dequantizes its chain once
//     with Scale·QDstCoef. A narrowing gcn or gs-mean layer prepares that
//     matrix as the int8 transform h·W (qtransformInto), so its chain runs
//     at the output width. The other layers keep float32 edge math and run
//     only their prepare/update GEMMs int8.
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
// An input row that does not quantize (tensor.ErrNonFinite) is an error.
type qPreparer interface {
	qprepare(h *tensor.Matrix, workers int) (psrc, pdst *tensor.Matrix, err error)
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
// width (gcn, gs-mean): prepareInto is Prepare on either tier, writing the
// transformed rows into buf (fresh buffers when buf is nil). quantized
// selects the int8 transform and is set only when the layer holds its
// quantized weight form; only that transform can fail.
type zPreparer interface {
	prepareInto(buf *PrepareBuf, h *tensor.Matrix, workers int, quantized bool) (psrc, pdst *tensor.Matrix, err error)
}

// PrepareBuf is the caller-owned state PrepareLayerInto recycles across
// calls: the transformed rows h·W of a layer that aggregates at the
// narrower width, and the int8 tier's row scratch for computing them. The
// zero value is ready to use.
type PrepareBuf struct {
	z  tensor.Matrix
	rq rowQuantizer
}

// PrepareLayerPrecision is Layer.Prepare with a precision switch: when
// quantized is true and the layer has a quantized weight form, its prepare
// GEMVs (a narrowing layer's transform, or the layer's own prepare
// transforms) run int8. Bit-identical across worker counts in both modes
// (rows are partitioned; each row is produced by the same serial kernel).
// An int8 input row that does not quantize panics on the calling
// goroutine; PrepareLayerInto returns it as an error.
func PrepareLayerPrecision(l Layer, h *tensor.Matrix, workers int, quantized bool) (psrc, pdst *tensor.Matrix) {
	psrc, pdst, err := PrepareLayerInto(nil, l, h, workers, quantized)
	if err != nil {
		panic(fmt.Sprintf("gnn: prepare %s: %v", l.Name(), err))
	}
	return psrc, pdst
}

// PrepareLayerInto is PrepareLayerPrecision for a caller that recycles the
// prepared matrix across calls: a layer that transforms its rows before the
// reduce chain writes z = h·W into buf, resized to fit, and returns it as
// psrc; every other layer leaves buf untouched. A nil buf allocates. On the
// int8 tier an input row that does not quantize is reported as a
// tensor.ErrNonFinite-wrapped error naming the row, the same row for every
// worker count.
func PrepareLayerInto(buf *PrepareBuf, l Layer, h *tensor.Matrix, workers int, quantized bool) (psrc, pdst *tensor.Matrix, err error) {
	quantized = quantized && LayerQuantized(l)
	if zp, ok := l.(zPreparer); ok {
		return zp.prepareInto(buf, h, workers, quantized)
	}
	if qp, ok := l.(qPreparer); ok && quantized {
		return qp.qprepare(h, workers)
	}
	psrc, pdst = l.Prepare(h, workers)
	return psrc, pdst, nil
}

// qtransformInto is transformInto on the int8 tier: each row of h is
// quantized with its own scale and multiplied by wT, the transposed
// quantized weights (tensor.QGemvInto: exact int32 dots, one dequantizing
// multiply per element). Each row is produced by the same serial kernel,
// so z is bit-identical for every worker count.
func qtransformInto(buf *PrepareBuf, h *tensor.Matrix, wT *tensor.QMatrix, workers int) (*tensor.Matrix, error) {
	if buf == nil {
		buf = &PrepareBuf{}
	}
	z := &buf.z
	z.Resize(h.Rows, wT.Rows)
	err := buf.rq.each(h, workers, func(i int, q []int8, s float32) {
		tensor.QGemvInto(z.Row(i), q, s, wT)
	})
	if err != nil {
		return nil, err
	}
	return z, nil
}

// rowQuantizer is the per-worker scratch of a row-parallel int8 prepare:
// one quantized input row and the first row that did not quantize, per
// worker. The zero value is ready to use.
type rowQuantizer struct {
	q   []int8
	bad []int
}

// each quantizes every row i of h with its own scale
// (tensor.QuantizeRowInto) into its worker's window of the scratch and
// calls fn(i, q, scale) on that worker. A row that does not quantize stops
// its worker and is returned as an ErrNonFinite-wrapped error: the failure
// never panics inside a worker goroutine, where nothing could contain it.
// The reported row is the first bad row of h for every worker count, since
// workers claim rows in increasing order and each stops only at its own
// first bad row.
func (rq *rowQuantizer) each(h *tensor.Matrix, workers int, fn func(i int, q []int8, s float32)) error {
	in := h.Cols
	nw := tensor.RowWorkers(h.Rows, workers)
	if cap(rq.q) < nw*in {
		rq.q = make([]int8, nw*in)
	}
	if cap(rq.bad) < nw {
		rq.bad = make([]int, nw)
	}
	q, bad := rq.q[:nw*in], rq.bad[:nw]
	for w := range bad {
		bad[w] = -1
	}
	tensor.ParallelRows(h.Rows, nw, func(w, lo, hi int) {
		if bad[w] >= 0 {
			return
		}
		qw := q[w*in : (w+1)*in]
		for i := lo; i < hi; i++ {
			s, err := tensor.QuantizeRowInto(qw, h.Row(i))
			if err != nil {
				bad[w] = i
				return
			}
			fn(i, qw, s)
		}
	})
	first := -1
	for _, b := range bad {
		if b >= 0 && (first < 0 || b < first) {
			first = b
		}
	}
	if first >= 0 {
		return fmt.Errorf("gnn: input row %d: %w", first, tensor.ErrNonFinite)
	}
	return nil
}

// mustQuantizeRow quantizes an activation row into q, panicking on
// non-finite values. It runs only inside an executor's update, whose
// worker recovers the panic into a fault.PanicError; prepares run
// row-parallel outside that containment and use rowQuantizer.each, which
// returns the failure instead.
func mustQuantizeRow(q []int8, row []float32) float32 {
	s, err := tensor.QuantizeRowInto(q, row)
	if err != nil {
		panic(fmt.Sprintf("gnn: quantize activation row: %v", err))
	}
	return s
}

// ---------------------------------------------------------------------------
// GCN: aggregation is linear (norm · h_u). A narrowing layer's int8 GEMV is
// its prepare transform and the update is the activation alone; otherwise
// the update is a single int8 GEMV.

func (l *gcnLayer) QuantizeWeights() error {
	l.qonce.Do(func() {
		l.ensure()
		l.qwT, l.qerr = tensor.QuantizeTransposed(l.w)
	})
	return l.qerr
}

func (l *gcnLayer) Quantized() bool { return l.qwT != nil }

func (l *gcnLayer) QUpdateScratch() int {
	if l.transformFirst() {
		return 0
	}
	return l.in
}

func (l *gcnLayer) QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) {
	if l.transformFirst() {
		l.UpdateInto(dst, hself, agg, scratch) // the activation alone
		return
	}
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

func (l *ggcnLayer) qprepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix, error) {
	psrc := tensor.NewMatrix(h.Rows, 2*l.out)
	pdst := tensor.NewMatrix(h.Rows, l.out)
	err := new(rowQuantizer).each(h, workers, func(i int, q []int8, s float32) {
		row := psrc.Row(i)
		tensor.QGemvInto(row[:l.out], q, s, l.qbT)
		tensor.QGemvInto(row[l.out:], q, s, l.qvT)
		tensor.QGemvInto(pdst.Row(i), q, s, l.qaT)
	})
	if err != nil {
		return nil, nil, err
	}
	return psrc, pdst, nil
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

func (l *sagePoolLayer) qprepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix, error) {
	qh := tensor.NewQMatrix(h.Rows, h.Cols)
	if err := tensor.QuantizeInto(qh, h); err != nil {
		return nil, nil, fmt.Errorf("gnn: quantize features: %w", err)
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
	return p, nil, nil
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

func (l *gatLayer) qprepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix, error) {
	psrc := tensor.NewMatrix(h.Rows, l.out+1)
	pdst := tensor.NewMatrix(h.Rows, 1)
	err := new(rowQuantizer).each(h, workers, func(i int, q []int8, s float32) {
		row := psrc.Row(i)
		z := row[:l.out]
		tensor.QGemvInto(z, q, s, l.qwT)
		row[l.out] = tensor.Dot(l.ar, z)
		pdst.Set(i, 0, tensor.Dot(l.al, z))
	})
	if err != nil {
		return nil, nil, err
	}
	return psrc, pdst, nil
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

func (l *multiHeadGATLayer) qprepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix, error) {
	psrc := tensor.NewMatrix(h.Rows, l.MsgDim())
	pdst := tensor.NewMatrix(h.Rows, l.heads)
	err := new(rowQuantizer).each(h, workers, func(i int, q []int8, s float32) {
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
	})
	if err != nil {
		return nil, nil, err
	}
	return psrc, pdst, nil
}

// ---------------------------------------------------------------------------
// GraphSAGE-Mean: linear sum aggregation. A narrowing layer transforms each
// row by W_bot in its int8 prepare and updates with quant(h_v)·W_topᵀ +
// mean(z); otherwise the update is one int8 GEMV over the concatenated
// [h_v ; mean] row. Either way each weight is stored once, in one byte.

func (l *sageMeanLayer) QuantizeWeights() error {
	l.qonce.Do(func() {
		l.ensure()
		if !l.transformFirst() {
			l.qwT, l.qerr = tensor.QuantizeTransposed(l.w)
			return
		}
		l.qwTopT, l.qerr = tensor.QuantizeTransposed(l.wTop)
		if l.qerr == nil {
			l.qwBotT, l.qerr = tensor.QuantizeTransposed(l.wBot)
		}
	})
	return l.qerr
}

func (l *sageMeanLayer) Quantized() bool { return l.qwT != nil || l.qwBotT != nil }

func (l *sageMeanLayer) QUpdateScratch() int {
	if l.transformFirst() {
		return l.in
	}
	return 2 * l.in
}

func (l *sageMeanLayer) QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) {
	if l.transformFirst() {
		q := qs[:l.in]
		tensor.QGemvInto(dst, q, mustQuantizeRow(q, hself), l.qwTopT)
		for i, v := range agg {
			dst[i] += v
		}
		maybeReLU(l.act, dst)
		return
	}
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
