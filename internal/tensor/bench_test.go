package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkMatMul128(b *testing.B) {
	benchMatMul(b, 128, 128, 128, false)
}

// BenchmarkMatMulReddit times the one-worker GEMM at the Reddit build's
// prepare shapes: the layer-0 transform of a narrowing fp32 layer (931×602
// times 602×64), gs-pl's pooling MLP (602×512), and the layer-1 transform
// (931×64 times 64×41) on a ReLU'd input, whose zero entries VecMatInto
// skips.
func BenchmarkMatMulReddit(b *testing.B) {
	for _, cols := range []int{64, 512} {
		b.Run(fmt.Sprintf("931x602x%d", cols), func(b *testing.B) { benchMatMul(b, 931, 602, cols, false) })
	}
	b.Run("931x64x41-relu", func(b *testing.B) { benchMatMul(b, 931, 64, 41, true) })
}

// benchMatMul times ParallelMatMulInto of a random m×k by k×n product at one
// worker; relu zeroes the negative half of the left operand first.
func benchMatMul(b *testing.B, m, k, n int, relu bool) {
	rng := rand.New(rand.NewSource(1))
	x := RandomMatrix(rng, m, k, 1)
	if relu {
		ReLU(x.Data)
	}
	y := RandomMatrix(rng, k, n, 1)
	out := NewMatrix(m, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelMatMulInto(out, x, y, 1)
	}
}

func BenchmarkVecMat1433x16(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	w := RandomMatrix(rng, 1433, 16, 1) // the Cora layer-1 GEMV
	x := RandomVector(rng, 1433, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		VecMat(x, w)
	}
}

// BenchmarkVecMatSmall times one VecMatInto at small-open's update shapes
// (gcn and gin at dims [16, 32, 8]), where the fixed cost per call counts.
func BenchmarkVecMatSmall(b *testing.B) {
	for _, shape := range [][2]int{{16, 32}, {32, 32}, {32, 8}, {8, 8}} {
		b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			w := RandomMatrix(rng, shape[0], shape[1], 1)
			x := RandomVector(rng, shape[0], 1)
			out := make([]float32, shape[1])
			runKernel(b, int64(w.Rows)*int64(w.Cols)*4, func() { VecMatInto(out, x, w) })
		})
	}
}

// The Reddit benchmarks time the hot kernels at the Reddit-scale build's
// shapes (492 in-neighbours, Reddit's mean in-degree, drawn from 931
// source rows; a 602→64 update) that the forward benchmarks and perfbench
// run, so a layout check gets a seconds-long answer. On amd64 each has an
// asm sub-benchmark, the production path, and a generic one, the same
// work on the portable loops (benchKernel).

// BenchmarkSumChainReddit runs one float32 reduce chain at the widths a
// Reddit-scale gcn chains (64 after layer 0's transform, 41 after layer
// 1's), over 492 rows and over the short lists of low-degree vertices.
func BenchmarkSumChainReddit(b *testing.B) {
	for _, cols := range []int{64, 41} {
		for _, deg := range []int{492, 32, 8} {
			b.Run(fmt.Sprintf("%dx%d", cols, deg), func(b *testing.B) {
				rng := rand.New(rand.NewSource(3))
				src := RandomMatrix(rng, 931, cols, 1)
				rows := make([]int32, deg)
				for i := range rows {
					rows[i] = int32(rng.Intn(src.Rows))
				}
				acc := make([]float32, src.Cols)
				benchKernel(b, int64(len(rows))*int64(src.Cols)*4,
					func() { SumChain(acc, src, rows) },
					func() { sumRowsGeneric(acc, src.Data, src.Rows, rows) })
			})
		}
	}
}

// BenchmarkQChainReddit runs one int8 reduce chain (QChain) at the widths
// a Reddit-scale gcn chains on the int8 tier (64 after layer 0's
// transform, 41 after layer 1's, a stride of 48), over 492 rows and over
// the short lists of low-degree vertices.
func BenchmarkQChainReddit(b *testing.B) {
	for _, cols := range []int{64, 41} {
		for _, deg := range []int{492, 32, 8} {
			b.Run(fmt.Sprintf("%dx%d", cols, deg), func(b *testing.B) {
				rng := rand.New(rand.NewSource(4))
				src := NewQSumMatrix(931, cols)
				for i := 0; i < src.Rows; i++ {
					rng.Read(src.Row(i)[:src.Cols])
				}
				rows := make([]int32, deg)
				for i := range rows {
					rows[i] = int32(rng.Intn(src.Rows))
				}
				acc := make([]int32, src.Stride)
				benchKernel(b, int64(len(rows))*int64(src.Stride),
					func() { QChain(acc, src, rows) },
					func() { qsumRowsGeneric(acc, src.Data, src.Rows, rows) })
			})
		}
	}
}

// BenchmarkQGemvReddit runs one int8 GEMV at the Reddit build's int8
// transforms: 602 → 64 on a dense row and 64 → 41 on a ReLU'd one, whose
// all-zero input pairs QGemvInto skips.
func BenchmarkQGemvReddit(b *testing.B) {
	b.Run("602x64", func(b *testing.B) { benchQGemv(b, 602, 64, false) })
	b.Run("64x41-relu", func(b *testing.B) { benchQGemv(b, 64, 41, true) })
}

// BenchmarkQGemvSmall times one QGemvInto at small-open's int8 update and
// transform shapes (gcn and gin at dims [16, 32, 8]), where the fixed cost
// per call counts.
func BenchmarkQGemvSmall(b *testing.B) {
	for _, shape := range [][2]int{{16, 32}, {32, 32}, {32, 8}, {8, 8}} {
		b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
			benchQGemv(b, shape[0], shape[1], false)
		})
	}
}

// benchQGemv times QGemvInto of a quantized random row of in values
// against quantized random in×out weights; relu zeroes the row's negative
// half first. The generic side runs the same compaction and panel on the
// portable kernel.
func benchQGemv(b *testing.B, in, out int, relu bool) {
	rng := rand.New(rand.NewSource(5))
	w, err := QuantizeWeights(RandomMatrix(rng, in, out, 1))
	if err != nil {
		b.Fatal(err)
	}
	x := RandomVector(rng, in, 1)
	if relu {
		ReLU(x)
	}
	qx := make([]int8, in)
	sx, err := QuantizeRowInto(qx, x)
	if err != nil {
		b.Fatal(err)
	}
	o := make([]float32, out)
	benchKernel(b, int64(in)*int64(out),
		func() { QGemvInto(o, qx, sx, w) },
		func() { qgemvGeneric(o, qx, sx, w) })
}

// qgemvGeneric is QGemvInto on the portable kernels, for even inputs and
// outputs of at most one panel chunk.
func qgemvGeneric(out []float32, qx []int8, sx float32, w *QWeights) {
	var rows, pairs [qgemvChunk]int32
	var acc [qgemvChunk]int32
	a := acc[:len(out)]
	if 4 <= len(out) && len(out) <= 8 {
		qgemv8DenseGeneric(a, w.pairs, 2*w.out, qx)
	} else {
		for base := 0; base < len(qx); base += 2 * qgemvChunk {
			n := compactPairs(&rows, &pairs, qx[base:min(base+2*qgemvChunk, len(qx))], int32(base/2))
			qgemvRowsGeneric(a, w.pairs, 2*w.out, (w.in+1)/2, rows[:n], pairs[:n])
		}
	}
	qdequant(out, a, sx, w.scales)
}

// runKernel times fn, which moves bytes bytes per call.
func runKernel(b *testing.B, bytes int64, fn func()) {
	b.ReportAllocs()
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
}
