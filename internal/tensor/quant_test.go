package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// DequantizeInto writes q's represented values (Scales[i]·Data[i][j]) into
// m, which must be q.Rows × q.Cols.
func DequantizeInto(m *Matrix, q *QMatrix) {
	if q.Rows != m.Rows || q.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: dequantize %dx%d into %dx%d", q.Rows, q.Cols, m.Rows, m.Cols))
	}
	rows := q.Rows
	scales := q.Scales[:rows]
	for i := 0; i < rows; i++ {
		s := scales[i]
		qrow := q.Row(i)
		mrow := m.Row(i)[:len(qrow)]
		for j, v := range qrow {
			mrow[j] = s * float32(v)
		}
	}
}

// QMatMulInto is the serial int8 GEMM, the reference ParallelQMatMulInto is
// compared against: out = a·bᵀ over rows [0, a.Rows) in one sweep.
func QMatMulInto(out *Matrix, a, bT *QMatrix) {
	if a.Cols != bT.Cols {
		panic(fmt.Sprintf("tensor: qmatmul %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, bT.Rows, bT.Cols))
	}
	if out.Rows != a.Rows || out.Cols != bT.Rows {
		panic(fmt.Sprintf("tensor: qmatmul out %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, bT.Rows))
	}
	qMatMulRowsInto(out, a, bT, 0, a.Rows)
}

// Per-row symmetric max-abs quantization bounds the round-trip error of every
// element by half a quantization step: |x - dequant(quant(x))| ≤ scale/2 =
// maxabs(row)/254.
func TestQuantizeRoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := RandomMatrix(rng, 40, 37, 3)
	q := NewQMatrix(m.Rows, m.Cols)
	if err := QuantizeInto(q, m); err != nil {
		t.Fatal(err)
	}
	back := NewMatrix(m.Rows, m.Cols)
	DequantizeInto(back, q)
	for i := 0; i < m.Rows; i++ {
		bound := q.Scales[i] / 2 * (1 + 1e-6)
		for j, v := range m.Row(i) {
			got := back.Row(i)[j]
			if diff := float64(v - got); math.Abs(diff) > float64(bound) {
				t.Fatalf("row %d col %d: |%g - %g| = %g > scale/2 = %g",
					i, j, v, got, math.Abs(diff), bound)
			}
		}
	}
}

func TestQuantizeRowZeroAndExtremes(t *testing.T) {
	q := make([]int8, 4)
	s, err := QuantizeRowInto(q, []float32{0, 0, 0, 0})
	if err != nil || s != 0 {
		t.Fatalf("zero row: scale %g err %v, want 0 nil", s, err)
	}
	for _, v := range q {
		if v != 0 {
			t.Fatalf("zero row quantized to %v", q)
		}
	}
	// The max-abs element must hit exactly ±127.
	s, err = QuantizeRowInto(q, []float32{-2, 1, 0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if q[0] != -127 || q[3] != 127 {
		t.Fatalf("extremes: got %v, want ±127 at ends", q)
	}
	if s != 2.0/127 {
		t.Fatalf("scale %g, want %g", s, 2.0/127)
	}
}

func TestQuantizeRejectsNonFinite(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, row := range [][]float32{
		{1, nan, 2},
		{inf, 0},
		{float32(math.Inf(-1))},
		{0, 0, nan}, // NaN with zero maxabs path
	} {
		if _, err := QuantizeRowInto(make([]int8, len(row)), row); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("row %v: err %v, want ErrNonFinite", row, err)
		}
	}
	m := NewMatrix(2, 2)
	m.Set(1, 1, nan)
	if err := QuantizeInto(NewQMatrix(2, 2), m); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("QuantizeInto: err %v, want ErrNonFinite", err)
	}
}

// quantizeRowCompare is the compare-and-branch max-abs loop
// QuantizeRowInto replaced: a NaN test, a sign branch and a float compare
// per element, then an Inf test on the maximum. It returns the scale and
// whether the row quantizes.
func quantizeRowCompare(row []float32) (float32, bool) {
	var maxAbs float32
	for _, v := range row {
		if v != v {
			return 0, false
		}
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if math.IsInf(float64(maxAbs), 0) {
		return 0, false
	}
	return maxAbs / 127, true
}

// The integer max over sign-cleared bits must give the compare loop's scale,
// bit for bit, and its verdict on every row: −0, subnormals, the largest
// finite value, and ±Inf and NaN at the first, a middle and the last index.
func TestQuantizeRowMatchesCompareLoop(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	negNaN := math.Float32frombits(0xffc00001)
	rows := [][]float32{
		{},
		{negZero},
		{negZero, 0, negZero},
		{math.SmallestNonzeroFloat32},
		{-math.SmallestNonzeroFloat32, 1e-40, negZero},
		{0x1p-126, -0x1.fffffcp-127},
		{math.MaxFloat32, -1},
		{-math.MaxFloat32, math.MaxFloat32, 3e38},
		{-2, 1, 0.5, 2},
		{0.25, -0.75, 0.5},
	}
	for _, bad := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), nan, negNaN} {
		for _, at := range []int{0, 2, 4} {
			row := []float32{-0.5, math.MaxFloat32, 1e-40, negZero, 3}
			row[at] = bad
			rows = append(rows, row)
		}
	}
	for _, row := range rows {
		q := make([]int8, len(row))
		got, err := QuantizeRowInto(q, row)
		want, ok := quantizeRowCompare(row)
		if ok != (err == nil) || (err != nil && !errors.Is(err, ErrNonFinite)) {
			t.Fatalf("row %v: err %v, compare loop quantizes: %v", row, err, ok)
		}
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("row %v: scale %g (%#x), compare loop %g (%#x)",
				row, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
}

// The int8 GEMM must agree exactly with a naive triple loop over the same
// quantized operands: int32 accumulation is exact, so blocking/unrolling is
// not allowed to change a single bit.
func TestQMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, shape := range [][3]int{{1, 1, 1}, {3, 5, 2}, {17, 33, 9}, {40, 130, 70}} {
		m, k, n := shape[0], shape[1], shape[2]
		a := RandomMatrix(rng, m, k, 2)
		b := RandomMatrix(rng, k, n, 2)
		qa, err := Quantize(a)
		if err != nil {
			t.Fatal(err)
		}
		qbT, err := QuantizeTransposed(b)
		if err != nil {
			t.Fatal(err)
		}
		got := NewMatrix(m, n)
		QMatMulInto(got, qa, qbT)

		want := NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var acc int32
				for kk := 0; kk < k; kk++ {
					acc += int32(qa.Row(i)[kk]) * int32(qbT.Row(j)[kk])
				}
				want.Set(i, j, qa.Scales[i]*qbT.Scales[j]*float32(acc))
			}
		}
		if !got.Equal(want) {
			t.Fatalf("shape %v: QMatMulInto differs from naive int8 reference", shape)
		}

		par := NewMatrix(m, n)
		ParallelQMatMulInto(par, qa, qbT, 8)
		if !par.Equal(want) {
			t.Fatalf("shape %v: ParallelQMatMulInto differs from serial", shape)
		}

		for i := 0; i < m; i++ {
			row := make([]float32, n)
			QGemvInto(row, qa.Row(i), qa.Scales[i], qbT)
			for j, v := range row {
				if v != want.At(i, j) {
					t.Fatalf("shape %v: QGemvInto row %d differs", shape, i)
				}
			}
		}
	}
}

// Quantized GEMM approximates the float product: relative error (vs the max
// magnitude of the float result) stays within the two-sided quantization
// noise, conservatively ~2/127 per operand plus accumulation.
func TestQMatMulApproximatesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := RandomMatrix(rng, 25, 60, 1)
	b := RandomMatrix(rng, 60, 18, 1)
	qa, _ := Quantize(a)
	qbT, _ := QuantizeTransposed(b)
	got := NewMatrix(25, 18)
	QMatMulInto(got, qa, qbT)
	want := MatMul(a, b)

	var maxRef float64
	for _, v := range want.Data {
		if m := math.Abs(float64(v)); m > maxRef {
			maxRef = m
		}
	}
	if diff := float64(got.MaxAbsDiff(want)); diff > 0.03*maxRef {
		t.Fatalf("int8 GEMM error %g vs max |ref| %g exceeds 3%%", diff, maxRef)
	}
}

// A reduce chain of accRowChain, flushed every chainBlockEdges edges and at
// the end, must give the plain int32 Σq of every column, and exact zeros in
// the padding columns. Widths cover the 16-byte step, the 8-byte step and
// padded strides; 600 edges cross two flush boundaries.
func TestAccRowChainMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, cols := range []int{1, 7, 8, 9, 16, 24, 41, 602} {
		q := NewQSumMatrix(9, cols)
		for i := 0; i < q.Rows; i++ {
			row := q.Row(i)[:cols]
			rng.Read(row)
			row[0] = 255 // the largest biased byte in one column of every row
		}
		acc := make([]int32, q.Stride)
		swar := make([]uint64, q.Stride/4)
		want := make([]int32, q.Stride)
		block := 0
		for e := 0; e < 600; e++ {
			row := q.Row(rng.Intn(q.Rows))
			accRowChain(swar, row)
			for j, b := range row {
				want[j] += int32(b) - 128
			}
			if block++; block == chainBlockEdges {
				flushChain(acc, swar, block)
				block = 0
			}
		}
		flushChain(acc, swar, block)
		for j := range want {
			if acc[j] != want[j] {
				t.Fatalf("cols %d: column %d chain Σq %d, naive %d", cols, j, acc[j], want[j])
			}
			if j >= cols && acc[j] != 0 {
				t.Fatalf("cols %d: padding column %d sums to %d", cols, j, acc[j])
			}
		}
	}
}

// QChain must equal one accRowChain per row, flushed every chainBlockEdges
// rows, over lists of 0 to 600 rows (whole four-row sweeps plus each tail,
// across both flush boundaries) at every stride from 8 to 72, with rows
// repeated and the largest biased byte in one column of every row. It must
// add into acc and leave swar zeroed.
func TestQChainMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for stride := 8; stride <= 72; stride += 8 {
		q := NewQSumMatrix(11, stride-rng.Intn(8))
		for i := 0; i < q.Rows; i++ {
			row := q.Row(i)[:q.Cols]
			rng.Read(row)
			row[0] = 255
		}
		for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 255, 256, 257, 259, 511, 512, 513, 600} {
			rows := make([]int32, n)
			for i := range rows {
				rows[i] = int32(rng.Intn(q.Rows))
			}
			start := make([]int32, q.Stride)
			for j := range start {
				start[j] = rng.Int31n(1<<20) - 1<<19
			}
			want := append([]int32(nil), start...)
			swar := make([]uint64, q.Stride/4)
			for lo := 0; lo < n; lo += chainBlockEdges {
				hi := min(lo+chainBlockEdges, n)
				for _, r := range rows[lo:hi] {
					accRowChain(swar, q.Row(int(r)))
				}
				flushChain(want, swar, hi-lo)
			}
			got := append([]int32(nil), start...)
			QChain(got, swar, q, rows)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("stride %d, %d rows: column %d QChain %d, per-row %d", q.Stride, n, j, got[j], want[j])
				}
			}
			for i, w := range swar {
				if w != 0 {
					t.Fatalf("stride %d, %d rows: swar word %d left %#x", q.Stride, n, i, w)
				}
			}
		}
	}
}

// The unrolled axpyRow must be bit-identical to its rolled form: it touches
// each element once. Odd lengths exercise the unroll tail.
func TestUnrolledKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{1, 2, 3, 4, 5, 31, 64, 127} {
		a := RandomVector(rng, n, 1)
		o := RandomVector(rng, n, 1)
		want := append([]float32(nil), o...)
		axpyRow(o, 0.7, a)
		for i, v := range a {
			want[i] += 0.7 * v
		}
		for i := range want {
			if o[i] != want[i] {
				t.Fatalf("n=%d: axpyRow[%d] = %g, want %g", n, i, o[i], want[i])
			}
		}
	}
}

// FuzzQuantRoundTrip feeds arbitrary bytes as float32 rows: non-finite
// inputs must be rejected with ErrNonFinite, finite inputs must round-trip
// within scale/2 per element and produce only finite dequantized values.
func FuzzQuantRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 128, 63})         // {0, 1}
	f.Add([]byte{0, 0, 192, 127})                    // NaN
	f.Add([]byte{0, 0, 128, 255, 0, 0, 128, 63})     // {-Inf, 1}
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}) // ragged tail ignored
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 4
		if n == 0 {
			return
		}
		row := make([]float32, n)
		finite := true
		for i := 0; i < n; i++ {
			row[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
			if math.IsNaN(float64(row[i])) || math.IsInf(float64(row[i]), 0) {
				finite = false
			}
		}
		q := make([]int8, n)
		scale, err := QuantizeRowInto(q, row)
		if !finite {
			if !errors.Is(err, ErrNonFinite) {
				t.Fatalf("non-finite row %v: err %v, want ErrNonFinite", row, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("finite row %v: %v", row, err)
		}
		// float32 maxabs/127 can round subnormal scales to 0 only for an
		// all-zero row; otherwise the bound must hold.
		bound := float64(scale) / 2 * (1 + 1e-6)
		for i, v := range row {
			back := float64(scale) * float64(q[i])
			if math.IsNaN(back) || math.IsInf(back, 0) {
				t.Fatalf("dequantized non-finite %g from %g", back, v)
			}
			if diff := math.Abs(float64(v) - back); diff > bound && bound > 0 {
				t.Fatalf("elem %d: |%g - %g| = %g > %g", i, v, back, diff, bound)
			}
		}
	})
}
