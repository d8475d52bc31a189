package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"scale/internal/fault"
	"scale/internal/tensor"
)

// ModelNames lists the evaluated models in the paper's order, plus the GAT
// extension (§I motivates SCALE with attention models; GAT exercises the
// SDDMM-style edge computation path).
func ModelNames() []string { return []string{"gcn", "ggcn", "gs-pl", "gin"} }

// AllModelNames includes the extensions beyond the paper's evaluated set:
// GAT (attention / SDDMM-style edge scores) and GraphSAGE-Mean (mean
// reduction, the divide-on-finalize path).
func AllModelNames() []string { return append(ModelNames(), "gat", "gat-4h", "gs-mean") }

// NewModel constructs the named model for the given feature-length chain,
// e.g. NewModel("gcn", []int{1433, 16, 7}, 1).
func NewModel(name string, dims []int, seed int64) (*Model, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("gnn: need at least 2 dims, got %v: %w", dims, fault.ErrBadShape)
	}
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("gnn: non-positive layer dim in %v: %w", dims, fault.ErrBadShape)
		}
	}
	m := &Model{ModelName: name}
	for i := 0; i+1 < len(dims); i++ {
		last := i+2 == len(dims)
		// Weights are materialized lazily (per-layer derived seed):
		// timing-only simulation of Table II-scale models must not
		// allocate multi-GB matrices it never reads.
		layerSeed := seed*1000003 + int64(i)
		var l Layer
		switch name {
		case "gcn":
			l = newGCNLayer(layerSeed, dims[i], dims[i+1], !last)
		case "ggcn":
			l = newGGCNLayer(layerSeed, dims[i], dims[i+1], !last)
		case "gs-pl":
			l = newSAGEPoolLayer(layerSeed, dims[i], dims[i+1], !last)
		case "gin":
			l = newGINLayer(layerSeed, dims[i], dims[i+1], !last)
		case "gat":
			l = newGATLayer(layerSeed, dims[i], dims[i+1], !last)
		case "gat-4h":
			l = newMultiHeadGATLayer(layerSeed, dims[i], dims[i+1], 4, !last)
		case "gs-mean":
			l = newSAGEMeanLayer(layerSeed, dims[i], dims[i+1], !last)
		default:
			return nil, fmt.Errorf("gnn: unknown model %q (have %v): %w", name, AllModelNames(), fault.ErrBadConfig)
		}
		m.Layers = append(m.Layers, l)
	}
	return m, nil
}

// MustModel is NewModel for statically known names; panics on error.
func MustModel(name string, dims []int, seed int64) *Model {
	m, err := NewModel(name, dims, seed)
	if err != nil {
		panic(err)
	}
	return m
}

func maybeReLU(act bool, x []float32) []float32 {
	if act {
		return tensor.ReLU(x)
	}
	return x
}

// narrows is the aggregation-order rule (DESIGN §4b, "Aggregation order"),
// one predicate for both tiers: a linear-sum layer whose first linear map
// narrows the row (in → out) applies that map to every row before the
// reduce chain, so the chain sums out-wide rows instead of in-wide ones.
// Both orders run the same |V| GEMVs of in×out; the chain is what shrinks,
// by in/out. BenchmarkAggregationOrder (internal/core) times both orders
// with each tier's kernels over the Table II shapes at Reddit-like and
// Cora-like degrees; this predicate picks the faster order in every cell
// where the two orders' runs do not overlap (EXPERIMENTS.md, "Aggregate at
// the narrower width" and "int8 at the narrower width").
func narrows(in, out int) bool { return out < in }

// transformInto writes h·w into buf's matrix, resized to h.Rows×w.Cols, or
// into a new matrix when buf is nil, and returns it: the fp32 prepare step
// of a layer that aggregates at the narrower width.
func transformInto(buf *PrepareBuf, h, w *tensor.Matrix, workers int) *tensor.Matrix {
	if buf == nil {
		buf = &PrepareBuf{}
	}
	z := &buf.z
	z.Resize(h.Rows, w.Cols)
	tensor.ParallelMatMulInto(z, h, w, workers)
	return z
}

// ---------------------------------------------------------------------------
// GCN (Kipf & Welling): m_v = Σ_u h_u / √(d_u·d_v);  h'_v = σ(W·m_v).
// A narrowing layer aggregates z_u = W·h_u instead, on both tiers:
// h'_v = σ(Σ_u z_u / √(d_u·d_v)), equal up to rounding.

type gcnLayer struct {
	in, out int
	act     bool
	seed    int64
	once    sync.Once
	w       *tensor.Matrix // in×out, lazily materialized

	qonce sync.Once
	qerr  error
	qwT   *tensor.QMatrix // wᵀ quantized per output column (see quantized.go)
}

func newGCNLayer(seed int64, in, out int, act bool) *gcnLayer {
	return &gcnLayer{in: in, out: out, act: act, seed: seed}
}

func (l *gcnLayer) ensure() {
	l.once.Do(func() {
		rng := rand.New(rand.NewSource(l.seed))
		l.w = tensor.GlorotMatrix(rng, l.in, l.out)
	})
}

func (l *gcnLayer) Name() string       { return "gcn" }
func (l *gcnLayer) InDim() int         { return l.in }
func (l *gcnLayer) OutDim() int        { return l.out }
func (l *gcnLayer) Reduce() ReduceKind { return ReduceSum }

// transformFirst reports whether the layer aggregates z = h·W: whether it
// narrows.
func (l *gcnLayer) transformFirst() bool { return narrows(l.in, l.out) }

func (l *gcnLayer) MsgDim() int {
	if l.transformFirst() {
		return l.out
	}
	return l.in
}

func (l *gcnLayer) Prepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix) {
	psrc, pdst, _ := l.prepareInto(nil, h, workers, false) // float32 cannot fail
	return psrc, pdst
}

func (l *gcnLayer) prepareInto(buf *PrepareBuf, h *tensor.Matrix, workers int, quantized bool) (*tensor.Matrix, *tensor.Matrix, error) {
	switch {
	case !l.transformFirst():
		return h, nil, nil
	case quantized:
		z, err := qtransformInto(buf, h, l.qwT, workers)
		return z, nil, err
	}
	l.ensure()
	return transformInto(buf, h, l.w, workers), nil, nil
}

func (l *gcnLayer) AccumulateEdge(acc, psrc, pdst, msg []float32, ctx EdgeContext) {
	norm := gcnNorm(ctx.SrcDeg, ctx.DstDeg)
	acc = acc[:len(psrc)] // bounds-check hint for the per-edge axpy
	for i, v := range psrc {
		acc[i] += norm * v
	}
}

// EdgeCoef is the exact per-edge norm AccumulateEdge applies (LinearAggregator).
func (l *gcnLayer) EdgeCoef(srcDeg, dstDeg int) float32 { return gcnNorm(srcDeg, dstDeg) }

func gcnNorm(srcDeg, dstDeg int) float32 {
	if srcDeg < 1 {
		srcDeg = 1
	}
	if dstDeg < 1 {
		dstDeg = 1
	}
	return float32(1 / math.Sqrt(float64(srcDeg)*float64(dstDeg)))
}

func (l *gcnLayer) UpdateInto(dst, hself, agg, scratch []float32) {
	if l.transformFirst() {
		copy(dst, agg)
	} else {
		l.ensure()
		tensor.VecMatInto(dst, agg, l.w)
	}
	maybeReLU(l.act, dst)
}

func (l *gcnLayer) UpdateScratch() int { return 0 }

// UpdateWeights exposes the update GEMV matrix (in×out, the modelled
// natural order's) so the register-level update ring (internal/core/micro)
// can execute this layer exactly.
func (l *gcnLayer) UpdateWeights() *tensor.Matrix {
	l.ensure()
	return l.w
}

func (l *gcnLayer) Work() LayerWork {
	return LayerWork{
		InDim: l.in, MsgDim: l.in, OutDim: l.out,
		// The symmetric norm folds into the adjacency values, so each
		// per-edge element costs one MAC — exactly SpMM.
		ReduceOpsPerEdge:    int64(l.in),
		UpdateMACsPerVertex: int64(l.in)*int64(l.out) + int64(l.out),
		WeightBytes:         4 * int64(l.in) * int64(l.out),
	}
}

// ---------------------------------------------------------------------------
// G-GCN (Bresson & Laurent residual gated graph convnets):
//   η_uv = σ(A·h_v + B·h_u);  m_v = Σ_u η_uv ⊙ (V·h_u);  h'_v = σ(U·h_v + m_v)

type ggcnLayer struct {
	in, out    int
	act        bool
	seed       int64
	once       sync.Once
	a, b, u, v *tensor.Matrix // each in×out, lazily materialized

	qonce              sync.Once
	qerr               error
	qaT, qbT, quT, qvT *tensor.QMatrix
}

func newGGCNLayer(seed int64, in, out int, act bool) *ggcnLayer {
	return &ggcnLayer{in: in, out: out, act: act, seed: seed}
}

func (l *ggcnLayer) ensure() {
	l.once.Do(func() {
		rng := rand.New(rand.NewSource(l.seed))
		l.a = tensor.GlorotMatrix(rng, l.in, l.out)
		l.b = tensor.GlorotMatrix(rng, l.in, l.out)
		l.u = tensor.GlorotMatrix(rng, l.in, l.out)
		l.v = tensor.GlorotMatrix(rng, l.in, l.out)
	})
}

func (l *ggcnLayer) Name() string       { return "ggcn" }
func (l *ggcnLayer) InDim() int         { return l.in }
func (l *ggcnLayer) OutDim() int        { return l.out }
func (l *ggcnLayer) MsgDim() int        { return l.out }
func (l *ggcnLayer) Reduce() ReduceKind { return ReduceSum }

// Prepare fuses the three GEMVs into a single parallel pass over h, reading
// each input row once: psrc rows are [B·h_u ; V·h_u] (2·out wide: gate term
// then value), pdst rows are A·h_v.
func (l *ggcnLayer) Prepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix) {
	l.ensure()
	psrc := tensor.NewMatrix(h.Rows, 2*l.out)
	pdst := tensor.NewMatrix(h.Rows, l.out)
	tensor.ParallelRows(h.Rows, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			hrow := h.Row(i)
			row := psrc.Row(i)
			tensor.VecMatInto(row[:l.out], hrow, l.b)
			tensor.VecMatInto(row[l.out:], hrow, l.v)
			tensor.VecMatInto(pdst.Row(i), hrow, l.a)
		}
	})
	return psrc, pdst
}

func (l *ggcnLayer) AccumulateEdge(acc, psrc, pdst, msg []float32, ctx EdgeContext) {
	for i := 0; i < l.out; i++ {
		gate := sigmoid32(pdst[i] + psrc[i])
		acc[i] += gate * psrc[l.out+i]
	}
}

func (l *ggcnLayer) UpdateInto(dst, hself, agg, scratch []float32) {
	l.ensure()
	tensor.VecMatInto(dst, hself, l.u)
	for i := range dst {
		dst[i] += agg[i]
	}
	maybeReLU(l.act, dst)
}

func (l *ggcnLayer) UpdateScratch() int { return 0 }

func (l *ggcnLayer) Work() LayerWork {
	io := int64(l.in) * int64(l.out)
	return LayerWork{
		InDim: l.in, MsgDim: l.out, OutDim: l.out,
		PreMACsPerVertex:    2 * io,           // B·h and V·h
		DstMACsPerVertex:    io,               // A·h
		GateOpsPerEdge:      3 * int64(l.out), // add, σ, ⊙ per element
		ReduceOpsPerEdge:    int64(l.out),
		UpdateMACsPerVertex: io + 2*int64(l.out), // U·h + add + act
		WeightBytes:         4 * 4 * io,
	}
}

func sigmoid32(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// ---------------------------------------------------------------------------
// GraphSAGE-Pool (Hamilton et al.):
//   m_v = max_u ReLU(W_p·h_u + b_p);  h'_v = σ(W·[h_v ; m_v])
// The pooling width follows the DGL convention of matching the input width,
// capped at 512 so sparse-bag-of-words inputs (Nell: 61278) pool into a
// dense hidden space instead of a quadratic-in-61278 matrix.

const maxPoolDim = 512

type sagePoolLayer struct {
	in, pool, out int
	act           bool
	seed          int64
	once          sync.Once
	wp            *tensor.Matrix // in×pool MLP, lazily materialized
	bp            []float32
	w             *tensor.Matrix // (in+pool)×out

	qonce     sync.Once
	qerr      error
	qwpT, qwT *tensor.QMatrix
}

func newSAGEPoolLayer(seed int64, in, out int, act bool) *sagePoolLayer {
	pool := in
	if pool > maxPoolDim {
		pool = maxPoolDim
	}
	return &sagePoolLayer{in: in, pool: pool, out: out, act: act, seed: seed}
}

func (l *sagePoolLayer) ensure() {
	l.once.Do(func() {
		rng := rand.New(rand.NewSource(l.seed))
		l.wp = tensor.GlorotMatrix(rng, l.in, l.pool)
		l.bp = tensor.RandomVector(rng, l.pool, 0.1)
		l.w = tensor.GlorotMatrix(rng, l.in+l.pool, l.out)
	})
}

func (l *sagePoolLayer) Name() string       { return "gs-pl" }
func (l *sagePoolLayer) InDim() int         { return l.in }
func (l *sagePoolLayer) OutDim() int        { return l.out }
func (l *sagePoolLayer) MsgDim() int        { return l.pool }
func (l *sagePoolLayer) Reduce() ReduceKind { return ReduceMax }

// Prepare runs the pooling MLP as one GEMM over all vertices, then folds in
// the bias and ReLU row-parallel.
func (l *sagePoolLayer) Prepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix) {
	l.ensure()
	p := tensor.NewMatrix(h.Rows, l.pool)
	tensor.ParallelMatMulInto(p, h, l.wp, workers)
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

func (l *sagePoolLayer) AccumulateEdge(acc, psrc, pdst, msg []float32, ctx EdgeContext) {
	tensor.MaxElems(acc, psrc)
}

func (l *sagePoolLayer) UpdateInto(dst, hself, agg, scratch []float32) {
	l.ensure()
	tensor.ConcatInto(scratch, hself, agg)
	tensor.VecMatInto(dst, scratch, l.w)
	maybeReLU(l.act, dst)
}

func (l *sagePoolLayer) UpdateScratch() int { return l.in + l.pool }

func (l *sagePoolLayer) Work() LayerWork {
	in, pool, out := int64(l.in), int64(l.pool), int64(l.out)
	return LayerWork{
		InDim: l.in, MsgDim: l.pool, OutDim: l.out,
		PreMACsPerVertex:    in*pool + 2*pool, // pool GEMV + bias + ReLU
		ReduceOpsPerEdge:    pool,             // elementwise max
		UpdateMACsPerVertex: (in+pool)*out + out,
		WeightBytes:         4 * (in*pool + pool + (in+pool)*out),
	}
}

// ---------------------------------------------------------------------------
// GIN (Xu et al.): m_v = Σ_u h_u;  h'_v = MLP((1+ε)·h_v + m_v)
// with a 2-layer MLP W2·ReLU(W1·x).

type ginLayer struct {
	in, out int
	eps     float32
	act     bool
	seed    int64
	once    sync.Once
	w1      *tensor.Matrix // in×out, lazily materialized
	w2      *tensor.Matrix // out×out

	qonce      sync.Once
	qerr       error
	qw1T, qw2T *tensor.QMatrix
}

func newGINLayer(seed int64, in, out int, act bool) *ginLayer {
	return &ginLayer{in: in, out: out, eps: 0.1, act: act, seed: seed}
}

func (l *ginLayer) ensure() {
	l.once.Do(func() {
		rng := rand.New(rand.NewSource(l.seed))
		l.w1 = tensor.GlorotMatrix(rng, l.in, l.out)
		l.w2 = tensor.GlorotMatrix(rng, l.out, l.out)
	})
}

func (l *ginLayer) Name() string       { return "gin" }
func (l *ginLayer) InDim() int         { return l.in }
func (l *ginLayer) OutDim() int        { return l.out }
func (l *ginLayer) MsgDim() int        { return l.in }
func (l *ginLayer) Reduce() ReduceKind { return ReduceSum }

func (l *ginLayer) Prepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix) {
	return h, nil
}

func (l *ginLayer) AccumulateEdge(acc, psrc, pdst, msg []float32, ctx EdgeContext) {
	acc = acc[:len(psrc)]
	for i, v := range psrc {
		acc[i] += v
	}
}

// EdgeCoef is 1: acc += 1·v is acc += v exactly (LinearAggregator).
func (l *ginLayer) EdgeCoef(int, int) float32 { return 1 }

func (l *ginLayer) UpdateInto(dst, hself, agg, scratch []float32) {
	l.ensure()
	x := scratch[:l.in]
	hidden := scratch[l.in : l.in+l.out]
	for i := range x {
		x[i] = (1+l.eps)*hself[i] + agg[i]
	}
	tensor.VecMatInto(hidden, x, l.w1)
	tensor.ReLU(hidden)
	tensor.VecMatInto(dst, hidden, l.w2)
	maybeReLU(l.act, dst)
}

func (l *ginLayer) UpdateScratch() int { return l.in + l.out }

func (l *ginLayer) Work() LayerWork {
	in, out := int64(l.in), int64(l.out)
	return LayerWork{
		InDim: l.in, MsgDim: l.in, OutDim: l.out,
		ReduceOpsPerEdge:    in,
		UpdateMACsPerVertex: 2*in + in*out + out*out + 2*out,
		WeightBytes:         4 * (in*out + out*out),
		MLPUpdate:           true,
	}
}

// ---------------------------------------------------------------------------
// GAT (Veličković et al., single head):
//   z_u = W·h_u;  e_uv = LeakyReLU(a_l·z_v + a_r·z_u)
//   α_uv = softmax_u(e_uv);  h'_v = σ(Σ_u α_uv·z_u)
// The softmax is folded into a SumNorm reduction: each message carries
// exp(e)·z_u plus a trailing exp(e) normalizer, keeping the reduce
// commutative and associative as the ring dataflow requires.

type gatLayer struct {
	in, out int
	act     bool
	seed    int64
	once    sync.Once
	w       *tensor.Matrix // in×out, lazily materialized
	al, ar  []float32      // out each

	qonce sync.Once
	qerr  error
	qwT   *tensor.QMatrix
}

func newGATLayer(seed int64, in, out int, act bool) *gatLayer {
	return &gatLayer{in: in, out: out, act: act, seed: seed}
}

func (l *gatLayer) ensure() {
	l.once.Do(func() {
		rng := rand.New(rand.NewSource(l.seed))
		l.w = tensor.GlorotMatrix(rng, l.in, l.out)
		l.al = tensor.RandomVector(rng, l.out, 0.3)
		l.ar = tensor.RandomVector(rng, l.out, 0.3)
	})
}

func (l *gatLayer) Name() string       { return "gat" }
func (l *gatLayer) InDim() int         { return l.in }
func (l *gatLayer) OutDim() int        { return l.out }
func (l *gatLayer) MsgDim() int        { return l.out }
func (l *gatLayer) Reduce() ReduceKind { return ReduceSumNorm }

// Prepare computes z = W·h once per vertex, writing z directly into the
// prepared source row and deriving both attention scores from it: psrc rows
// are [z_u ; a_r·z_u] (out+1 wide), pdst rows carry the scalar a_l·z_v.
func (l *gatLayer) Prepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix) {
	l.ensure()
	psrc := tensor.NewMatrix(h.Rows, l.out+1)
	pdst := tensor.NewMatrix(h.Rows, 1)
	tensor.ParallelRows(h.Rows, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := psrc.Row(i)
			z := row[:l.out]
			tensor.VecMatInto(z, h.Row(i), l.w)
			row[l.out] = tensor.Dot(l.ar, z)
			pdst.Set(i, 0, tensor.Dot(l.al, z))
		}
	})
	return psrc, pdst
}

func (l *gatLayer) AccumulateEdge(acc, psrc, pdst, msg []float32, ctx EdgeContext) {
	e := pdst[0] + psrc[l.out]
	if e < 0 {
		e *= 0.2 // LeakyReLU
	}
	w := float32(math.Exp(float64(e)))
	for i := 0; i < l.out; i++ {
		acc[i] += w * psrc[i]
	}
	acc[l.out] += w
}

func (l *gatLayer) UpdateInto(dst, hself, agg, scratch []float32) {
	copy(dst, agg[:l.out])
	maybeReLU(l.act, dst)
}

func (l *gatLayer) UpdateScratch() int { return 0 }

func (l *gatLayer) Work() LayerWork {
	in, out := int64(l.in), int64(l.out)
	return LayerWork{
		InDim: l.in, MsgDim: l.out, OutDim: l.out,
		PreMACsPerVertex:    in*out + out, // W·h + a_r score
		DstMACsPerVertex:    out,          // a_l score (z_v reused from source prep)
		GateOpsPerEdge:      out + 4,      // scale by exp(e) + score ops
		ReduceOpsPerEdge:    out + 1,
		UpdateMACsPerVertex: out,
		WeightBytes:         4 * (in*out + 2*out),
	}
}

// ---------------------------------------------------------------------------
// GraphSAGE-Mean (Hamilton et al.): m_v = mean_u h_u;  h'_v = σ(W·[h_v ; m_v])
// Extension model: exercises the mean reduction (divide on finalize), which
// none of the paper's four evaluated models use. With W = [W_top; W_bot], a
// narrowing layer aggregates z_u = W_bot·h_u instead, on both tiers:
// h'_v = σ(W_top·h_v + mean_u z_u), equal up to rounding.

type sageMeanLayer struct {
	in, out    int
	act        bool
	seed       int64
	once       sync.Once
	w          *tensor.Matrix // 2in×out, lazily materialized
	wTop, wBot *tensor.Matrix // row views of w: its first and last in rows

	// The int8 forms (quantized.go): a narrowing layer quantizes W_top
	// and W_bot separately, a widening one the joint W.
	qonce          sync.Once
	qerr           error
	qwT            *tensor.QMatrix
	qwTopT, qwBotT *tensor.QMatrix
}

func newSAGEMeanLayer(seed int64, in, out int, act bool) *sageMeanLayer {
	return &sageMeanLayer{in: in, out: out, act: act, seed: seed}
}

func (l *sageMeanLayer) ensure() {
	l.once.Do(func() {
		rng := rand.New(rand.NewSource(l.seed))
		l.w = tensor.GlorotMatrix(rng, 2*l.in, l.out)
		half := l.in * l.out
		l.wTop = &tensor.Matrix{Rows: l.in, Cols: l.out, Data: l.w.Data[:half]}
		l.wBot = &tensor.Matrix{Rows: l.in, Cols: l.out, Data: l.w.Data[half:]}
	})
}

func (l *sageMeanLayer) Name() string       { return "gs-mean" }
func (l *sageMeanLayer) InDim() int         { return l.in }
func (l *sageMeanLayer) OutDim() int        { return l.out }
func (l *sageMeanLayer) Reduce() ReduceKind { return ReduceMean }

// transformFirst reports whether the layer aggregates z = h·W_bot: whether
// it narrows.
func (l *sageMeanLayer) transformFirst() bool { return narrows(l.in, l.out) }

func (l *sageMeanLayer) MsgDim() int {
	if l.transformFirst() {
		return l.out
	}
	return l.in
}

func (l *sageMeanLayer) Prepare(h *tensor.Matrix, workers int) (*tensor.Matrix, *tensor.Matrix) {
	psrc, pdst, _ := l.prepareInto(nil, h, workers, false) // float32 cannot fail
	return psrc, pdst
}

func (l *sageMeanLayer) prepareInto(buf *PrepareBuf, h *tensor.Matrix, workers int, quantized bool) (*tensor.Matrix, *tensor.Matrix, error) {
	switch {
	case !l.transformFirst():
		return h, nil, nil
	case quantized:
		z, err := qtransformInto(buf, h, l.qwBotT, workers)
		return z, nil, err
	}
	l.ensure()
	return transformInto(buf, h, l.wBot, workers), nil, nil
}

func (l *sageMeanLayer) AccumulateEdge(acc, psrc, pdst, msg []float32, ctx EdgeContext) {
	acc = acc[:len(psrc)]
	for i, v := range psrc {
		acc[i] += v
	}
}

// EdgeCoef is 1: acc += 1·v is acc += v exactly (LinearAggregator).
func (l *sageMeanLayer) EdgeCoef(int, int) float32 { return 1 }

func (l *sageMeanLayer) UpdateInto(dst, hself, agg, scratch []float32) {
	l.ensure()
	if l.transformFirst() {
		tensor.VecMatInto(dst, hself, l.wTop)
		for i, v := range agg {
			dst[i] += v
		}
	} else {
		tensor.ConcatInto(scratch, hself, agg)
		tensor.VecMatInto(dst, scratch, l.w)
	}
	maybeReLU(l.act, dst)
}

func (l *sageMeanLayer) UpdateScratch() int { return 2 * l.in }

func (l *sageMeanLayer) Work() LayerWork {
	in, out := int64(l.in), int64(l.out)
	return LayerWork{
		InDim: l.in, MsgDim: l.in, OutDim: l.out,
		ReduceOpsPerEdge:    in,
		UpdateMACsPerVertex: 2*in*out + out,
		WeightBytes:         4 * 2 * in * out,
	}
}
