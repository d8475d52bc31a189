package gnn

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scale/internal/tensor"
)

// Quantized update kernels must approximate their float forms: per-row
// symmetric int8 bounds each GEMV operand's relative error by ~1/254 of the
// row max, so outputs agree within a small fraction of the output scale.
// [24, 12, 5] narrows at both layers, so a gcn or gs-mean update applies
// only what follows W; [12, 24, 5] widens first, so its layer 0 update is
// the whole int8 GEMV (gcn's W, gs-mean's joint [h_v; mean] form).
func TestQUpdateApproximatesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range [][]int{{24, 12, 5}, {12, 24, 5}} {
		for _, name := range AllModelNames() {
			m := MustModel(name, dims, 3)
			if err := QuantizeModel(m); err != nil {
				t.Fatalf("%s %v: QuantizeModel: %v", name, dims, err)
			}
			for li, l := range m.Layers {
				if !LayerQuantized(l) {
					t.Fatalf("%s %v layer %d: not quantized after QuantizeModel", name, dims, li)
				}
				qk := l.(QKernels)
				hself := tensor.RandomVector(rng, l.InDim(), 1)
				agg := tensor.RandomVector(rng, l.Reduce().AccWidth(l.MsgDim()), 1)
				if l.Reduce() == ReduceSumNorm {
					agg[l.MsgDim()] = 1 + rng.Float32() // positive normalizer
				}

				want := make([]float32, l.OutDim())
				got := make([]float32, l.OutDim())
				scratch := make([]float32, l.UpdateScratch())
				qscratch := make([]float32, l.UpdateScratch())
				qs := make([]int8, qk.QUpdateScratch())
				l.UpdateInto(want, hself, agg, scratch)
				qk.QUpdateInto(got, hself, agg, qscratch, qs)

				var maxRef, maxDiff float64
				for i := range want {
					if a := math.Abs(float64(want[i])); a > maxRef {
						maxRef = a
					}
					if d := math.Abs(float64(want[i] - got[i])); d > maxDiff {
						maxDiff = d
					}
				}
				// GIN chains two quantized GEMVs; give the looser bound.
				bound := 0.05 * (maxRef + 1e-6)
				if maxDiff > bound {
					t.Errorf("%s %v layer %d: quantized update err %g > %g (max ref %g)",
						name, dims, li, maxDiff, bound, maxRef)
				}
			}
		}
	}
}

// Quantized prepare must approximate float prepare and stay bit-identical
// across worker counts.
func TestQPrepareApproximatesFloatAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	h := tensor.RandomMatrix(rng, 50, 24, 1)
	for _, name := range AllModelNames() {
		m := MustModel(name, []int{24, 12, 5}, 4)
		if err := QuantizeModel(m); err != nil {
			t.Fatal(err)
		}
		l := m.Layers[0]
		fsrc, fdst := PrepareLayerPrecision(l, h, 1, false)
		qsrc, qdst := PrepareLayerPrecision(l, h, 1, true)
		qsrc8, qdst8 := PrepareLayerPrecision(l, h, 8, true)

		if !qsrc.Equal(qsrc8) || (qdst == nil) != (qdst8 == nil) || (qdst != nil && !qdst.Equal(qdst8)) {
			t.Fatalf("%s: quantized prepare differs between 1 and 8 workers", name)
		}
		check := func(f, q *tensor.Matrix, what string) {
			if (f == nil) != (q == nil) {
				t.Fatalf("%s %s: nil mismatch", name, what)
			}
			if f == nil || f == q { // identity prepare (psrc = h)
				return
			}
			var maxRef float64
			for _, v := range f.Data {
				if a := math.Abs(float64(v)); a > maxRef {
					maxRef = a
				}
			}
			if diff := float64(f.MaxAbsDiff(q)); diff > 0.05*(maxRef+1e-6) {
				t.Errorf("%s %s: quantized prepare err %g (max ref %g)", name, what, diff, maxRef)
			}
		}
		check(fsrc, qsrc, "psrc")
		check(fdst, qdst, "pdst")
	}
}

// An int8 prepare that meets a row it cannot quantize returns an
// ErrNonFinite error naming the first such row, the same error for every
// worker count, and never panics inside its row workers (where no executor
// could contain it). A layer whose prepare passes h through unread (gin, a
// widening gcn or gs-mean) has nothing to quantize there.
func TestQPrepareNonFiniteIsError(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	h := tensor.RandomMatrix(rng, 50, 24, 1)
	h.Set(30, 3, float32(math.NaN()))
	h.Set(7, 11, float32(math.Inf(1)))
	for _, name := range AllModelNames() {
		m := MustModel(name, []int{24, 12, 5}, 4)
		if err := QuantizeModel(m); err != nil {
			t.Fatal(err)
		}
		l := m.Layers[0]
		h0 := tensor.RandomMatrix(rng, 50, 24, 1)
		fsrc, _ := l.Prepare(h0, 1)
		reads := fsrc != h0
		var first error
		for _, workers := range []int{1, 3, 8} {
			_, _, err := PrepareLayerInto(&PrepareBuf{}, l, h, workers, true)
			if !reads {
				if err != nil {
					t.Fatalf("%s workers=%d: identity prepare failed: %v", name, workers, err)
				}
				continue
			}
			if !errors.Is(err, tensor.ErrNonFinite) || !strings.Contains(err.Error(), "row 7:") {
				t.Fatalf("%s workers=%d: got %v, want ErrNonFinite at row 7", name, workers, err)
			}
			if first == nil {
				first = err
			} else if err.Error() != first.Error() {
				t.Fatalf("%s workers=%d: %q differs from workers=1's %q", name, workers, err, first)
			}
		}
	}
}

// For separable-coefficient layers, the float AccumulateEdge must factor as
// QSrcCoef(srcDeg)·QDstCoef(dstDeg)·psrc — the identity the integer
// aggregation path relies on (source factor folded into quantization,
// destination factor into the per-vertex dequantize).
func TestQCoefsFactorAccumulateEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	degrees := []int{0, 1, 3, 7, 100} // 0 exercises the floor-at-1 clamp
	for _, name := range []string{"gcn", "gin", "gs-mean"} {
		m := MustModel(name, []int{16, 8, 4}, 5)
		l := m.Layers[0]
		qa, ok := l.(LinearAggregator)
		if !ok {
			t.Fatalf("%s: expected LinearAggregator", name)
		}
		psrc := tensor.RandomVector(rng, l.MsgDim(), 1)
		width := l.Reduce().AccWidth(l.MsgDim())
		for _, du := range degrees {
			for _, dv := range degrees {
				acc := make([]float32, width)
				ctx := EdgeContext{Src: 0, Dst: 1, SrcDeg: du, DstDeg: dv}
				l.AccumulateEdge(acc, psrc, nil, nil, ctx)
				coef := float64(qa.QSrcCoef(du)) * float64(qa.QDstCoef(dv))
				for i, v := range psrc {
					want := coef * float64(v)
					if d := math.Abs(want - float64(acc[i])); d > 1e-6*math.Abs(want)+1e-12 {
						t.Fatalf("%s deg %d->%d: acc[%d] = %g, separable coef gives %g",
							name, du, dv, i, acc[i], want)
					}
				}
			}
		}
	}
}

// Shared-scale quantization with folded source coefficients feeds exact
// integer chains: summing the quantized rows and dequantizing once must
// match the per-row float equivalent to within accumulated quantization
// error. Uses an unaligned width so the stride padding is exercised.
func TestSharedScaleChainMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m := tensor.RandomMatrix(rng, 12, 13, 1)
	coefs := make([]float32, m.Rows)
	for i := range coefs {
		coefs[i] = 0.1 + rng.Float32()
	}
	q := tensor.NewQSumMatrix(m.Rows, m.Cols)
	if err := tensor.ParallelQuantizeScaledInto(q, m, coefs, 1); err != nil {
		t.Fatal(err)
	}
	acc32 := make([]int32, q.Stride)
	swar := make([]uint64, q.Stride/4)
	want := make([]float64, m.Cols)
	rows := make([]int32, m.Rows)
	for i := range rows {
		rows[i] = int32(i)
		for j, v := range m.Row(i) {
			want[j] += float64(coefs[i]) * float64(v)
		}
	}
	tensor.QChain(acc32, swar, q, rows)
	// Each row contributes at most Scale/2 absolute error per element.
	bound := float64(q.Scale) * 0.5 * float64(m.Rows) * 1.0001
	for j := range want {
		got := float64(q.Scale) * float64(acc32[j])
		if d := math.Abs(got - want[j]); d > bound {
			t.Fatalf("col %d: integer chain %g vs float %g (err %g > %g)", j, got, want[j], d, bound)
		}
	}
	for j := m.Cols; j < q.Stride; j++ {
		if acc32[j] != 0 {
			t.Fatalf("padding col %d accumulated %d, want 0", j, acc32[j])
		}
	}
}

// Layers with nonlinear edge math must not advertise LinearAggregator.
func TestNonlinearLayersLackLinearAggregator(t *testing.T) {
	for _, name := range []string{"ggcn", "gat", "gat-4h", "gs-pl"} {
		m := MustModel(name, []int{16, 8, 4}, 6)
		if _, ok := m.Layers[0].(LinearAggregator); ok {
			t.Fatalf("%s: unexpectedly implements LinearAggregator", name)
		}
	}
}
