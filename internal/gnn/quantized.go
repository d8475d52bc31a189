package gnn

import (
	"fmt"

	"scale/internal/tensor"
)

// Quantized execution tier (DESIGN §4j). Only a Session quantizes: an int8
// session calls QuantizeModel once when it materializes its model, never per
// request, and each layer that supports int8 execution keeps its quantized
// weight form from then on. The executors run a layer's int8 kernels exactly
// when LayerQuantized reports that form present:
//
//   - QKernels is the update-side capability: QUpdateInto replaces the
//     update GEMVs with int8 GEMVs (quantize the activation row, sum its
//     non-zero input pairs against the pair-layout quantized weights in
//     int32, dequantize at the output boundary; tensor.QGemvInto). All
//     seven built-in layers implement it.
//   - LinearAggregator (layer.go) is the aggregation-side capability of the
//     linear-sum layers, gcn, gin and gs-mean, whose edge coefficient is
//     SrcCoef(deg u)·DstCoef(deg v) on both tiers: the int8 executor folds
//     each row's source factor into a shared-scale biased-byte quantization
//     of the prepared source matrix (tensor.ParallelQuantizeScaledInto),
//     reduce chains sum raw byte rows in exact integer arithmetic
//     (tensor.QChain — no multiply, no convert, 16-bit lanes widened into
//     int32 every 256 rows), and each vertex dequantizes its chain once
//     with Scale·DstCoef. A narrowing gcn or gs-mean layer prepares that
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
	// QUpdateScratch(). Only valid when Quantized() is true. An activation
	// row that does not quantize (a non-finite value, e.g. from a finite
	// input that overflowed) is a tensor.ErrNonFinite-wrapped error, and
	// dst is then unspecified.
	QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) error
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
// quantized with its own scale and multiplied by w, the quantized weights
// (tensor.QGemvInto: exact int32 sums, one dequantizing multiply pair per
// element). Each row is produced by the same serial kernel, so z is
// bit-identical for every worker count.
func qtransformInto(buf *PrepareBuf, h *tensor.Matrix, w *tensor.QWeights, out, workers int) (*tensor.Matrix, error) {
	if buf == nil {
		buf = &PrepareBuf{}
	}
	z := &buf.z
	z.Resize(h.Rows, out)
	err := buf.rq.each(h, workers, func(i int, q []int8, s float32) {
		tensor.QGemvInto(z.Row(i), q, s, w)
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

// quantizeActivation quantizes an update's activation row into q; a
// non-finite value is a tensor.ErrNonFinite-wrapped error.
func quantizeActivation(q []int8, row []float32) (float32, error) {
	s, err := tensor.QuantizeRowInto(q, row)
	if err != nil {
		return 0, fmt.Errorf("gnn: quantize activation row: %w", err)
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// GCN: aggregation is linear (SrcCoef·h_u, then DstCoef per vertex). A
// narrowing layer's int8 GEMV is its prepare transform and the update is
// the activation alone; otherwise the update is a single int8 GEMV.

func (l *gcnLayer) QuantizeWeights() error {
	l.qonce.Do(func() {
		l.ensure()
		l.qw, l.qerr = tensor.QuantizeWeights(l.w)
	})
	return l.qerr
}

func (l *gcnLayer) Quantized() bool { return l.qw != nil }

func (l *gcnLayer) QUpdateScratch() int {
	if l.transformFirst() {
		return 0
	}
	return l.in
}

func (l *gcnLayer) QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) error {
	if l.transformFirst() {
		l.UpdateInto(dst, hself, agg, scratch) // the activation alone
		return nil
	}
	q := qs[:l.in]
	s, err := quantizeActivation(q, agg)
	if err != nil {
		return err
	}
	tensor.QGemvInto(dst, q, s, l.qw)
	maybeReLU(l.act, dst)
	return nil
}

// ---------------------------------------------------------------------------
// G-GCN: the three prepare GEMVs (B·h, V·h, A·h) and the update GEMV (U·h)
// run int8; the per-edge sigmoid gate keeps float aggregation.

func (l *ggcnLayer) QuantizeWeights() error {
	l.qonce.Do(func() {
		l.ensure()
		quantize := func(m *tensor.Matrix) *tensor.QWeights {
			if l.qerr != nil {
				return nil
			}
			q, err := tensor.QuantizeWeights(m)
			l.qerr = err
			return q
		}
		l.qa, l.qb, l.qu, l.qv = quantize(l.a), quantize(l.b), quantize(l.u), quantize(l.v)
	})
	return l.qerr
}

func (l *ggcnLayer) Quantized() bool     { return l.qv != nil }
func (l *ggcnLayer) QUpdateScratch() int { return l.in }

func (l *ggcnLayer) QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) error {
	q := qs[:l.in]
	s, err := quantizeActivation(q, hself)
	if err != nil {
		return err
	}
	tensor.QGemvInto(dst, q, s, l.qu)
	for i := range dst {
		dst[i] += agg[i]
	}
	maybeReLU(l.act, dst)
	return nil
}

func (l *ggcnLayer) qprepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix, error) {
	psrc := tensor.NewMatrix(h.Rows, 2*l.out)
	pdst := tensor.NewMatrix(h.Rows, l.out)
	err := new(rowQuantizer).each(h, workers, func(i int, q []int8, s float32) {
		row := psrc.Row(i)
		tensor.QGemvInto(row[:l.out], q, s, l.qb)
		tensor.QGemvInto(row[l.out:], q, s, l.qv)
		tensor.QGemvInto(pdst.Row(i), q, s, l.qa)
	})
	if err != nil {
		return nil, nil, err
	}
	return psrc, pdst, nil
}

// ---------------------------------------------------------------------------
// GraphSAGE-Pool: the pooling MLP runs one int8 GEMV per row; the max
// reduce keeps float aggregation; the update GEMV runs int8.

func (l *sagePoolLayer) QuantizeWeights() error {
	l.qonce.Do(func() {
		l.ensure()
		l.qwp, l.qerr = tensor.QuantizeWeights(l.wp)
		if l.qerr == nil {
			l.qw, l.qerr = tensor.QuantizeWeights(l.w)
		}
	})
	return l.qerr
}

func (l *sagePoolLayer) Quantized() bool     { return l.qw != nil }
func (l *sagePoolLayer) QUpdateScratch() int { return l.in + l.pool }

func (l *sagePoolLayer) QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) error {
	cat := scratch[:l.in+l.pool]
	tensor.ConcatInto(cat, hself, agg)
	q := qs[:l.in+l.pool]
	s, err := quantizeActivation(q, cat)
	if err != nil {
		return err
	}
	tensor.QGemvInto(dst, q, s, l.qw)
	maybeReLU(l.act, dst)
	return nil
}

func (l *sagePoolLayer) qprepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix, error) {
	p := tensor.NewMatrix(h.Rows, l.pool)
	err := new(rowQuantizer).each(h, workers, func(i int, q []int8, s float32) {
		row := p.Row(i)
		tensor.QGemvInto(row, q, s, l.qwp)
		for j, bv := range l.bp {
			row[j] += bv
		}
		tensor.ReLU(row)
	})
	if err != nil {
		return nil, nil, err
	}
	return p, nil, nil
}

// ---------------------------------------------------------------------------
// GIN: both MLP GEMVs run int8 (quantize x, GEMV W1, ReLU, re-quantize the
// hidden row, GEMV W2); aggregation is a plain sum — linear.

func (l *ginLayer) QuantizeWeights() error {
	l.qonce.Do(func() {
		l.ensure()
		l.qw1, l.qerr = tensor.QuantizeWeights(l.w1)
		if l.qerr == nil {
			l.qw2, l.qerr = tensor.QuantizeWeights(l.w2)
		}
	})
	return l.qerr
}

func (l *ginLayer) Quantized() bool { return l.qw2 != nil }

// QUpdateScratch sizes one buffer reused for both quantized rows: x (in)
// first, then — after x is consumed by the W1 GEMV — the hidden row (out).
func (l *ginLayer) QUpdateScratch() int {
	if l.in > l.out {
		return l.in
	}
	return l.out
}

func (l *ginLayer) QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) error {
	x := scratch[:l.in]
	hidden := scratch[l.in : l.in+l.out]
	for i := range x {
		x[i] = (1+l.eps)*hself[i] + agg[i]
	}
	qx := qs[:l.in]
	s, err := quantizeActivation(qx, x)
	if err != nil {
		return err
	}
	tensor.QGemvInto(hidden, qx, s, l.qw1)
	tensor.ReLU(hidden)
	qh := qs[:l.out]
	if s, err = quantizeActivation(qh, hidden); err != nil {
		return err
	}
	tensor.QGemvInto(dst, qh, s, l.qw2)
	maybeReLU(l.act, dst)
	return nil
}

// ---------------------------------------------------------------------------
// GAT: z = W·h runs int8 in prepare; attention scores, the exp-weighted
// aggregation, and the weightless update stay float.

func (l *gatLayer) QuantizeWeights() error {
	l.qonce.Do(func() {
		l.ensure()
		l.qw, l.qerr = tensor.QuantizeWeights(l.w)
	})
	return l.qerr
}

func (l *gatLayer) Quantized() bool     { return l.qw != nil }
func (l *gatLayer) QUpdateScratch() int { return 0 }

func (l *gatLayer) QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) error {
	l.UpdateInto(dst, hself, agg, scratch)
	return nil
}

func (l *gatLayer) qprepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix, error) {
	psrc := tensor.NewMatrix(h.Rows, l.out+1)
	pdst := tensor.NewMatrix(h.Rows, 1)
	err := new(rowQuantizer).each(h, workers, func(i int, q []int8, s float32) {
		row := psrc.Row(i)
		z := row[:l.out]
		tensor.QGemvInto(z, q, s, l.qw)
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

func (l *multiHeadGATLayer) QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) error {
	l.UpdateInto(dst, hself, agg, scratch)
	return nil
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
			tensor.QGemvInto(z, q, s, sub.qw)
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
			l.qw, l.qerr = tensor.QuantizeWeights(l.w)
			return
		}
		l.qwTop, l.qerr = tensor.QuantizeWeights(l.wTop)
		if l.qerr == nil {
			l.qwBot, l.qerr = tensor.QuantizeWeights(l.wBot)
		}
	})
	return l.qerr
}

func (l *sageMeanLayer) Quantized() bool { return l.qw != nil || l.qwBot != nil }

func (l *sageMeanLayer) QUpdateScratch() int {
	if l.transformFirst() {
		return l.in
	}
	return 2 * l.in
}

func (l *sageMeanLayer) QUpdateInto(dst, hself, agg, scratch []float32, qs []int8) error {
	if l.transformFirst() {
		q := qs[:l.in]
		s, err := quantizeActivation(q, hself)
		if err != nil {
			return err
		}
		tensor.QGemvInto(dst, q, s, l.qwTop)
		for i, v := range agg {
			dst[i] += v
		}
		maybeReLU(l.act, dst)
		return nil
	}
	cat := scratch[:2*l.in]
	tensor.ConcatInto(cat, hself, agg)
	q := qs[:2*l.in]
	s, err := quantizeActivation(q, cat)
	if err != nil {
		return err
	}
	tensor.QGemvInto(dst, q, s, l.qw)
	maybeReLU(l.act, dst)
	return nil
}
