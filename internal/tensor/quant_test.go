package tensor

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// Per-row symmetric max-abs quantization bounds the round-trip error of every
// element by half a quantization step: |x - dequant(quant(x))| ≤ scale/2 =
// maxabs(row)/254.
func TestQuantizeRoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := RandomMatrix(rng, 40, 37, 3)
	q := make([]int8, m.Cols)
	for i := 0; i < m.Rows; i++ {
		s, err := QuantizeRowInto(q, m.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		bound := s / 2 * (1 + 1e-6)
		for j, v := range m.Row(i) {
			got := s * float32(q[j])
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
	if _, err := QuantizeWeights(m); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("QuantizeWeights: err %v, want ErrNonFinite", err)
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

// quantizeRows quantizes every row of m with its own scale, as the int8
// tier's prepares do.
func quantizeRows(t *testing.T, m *Matrix) ([][]int8, []float32) {
	t.Helper()
	q := make([][]int8, m.Rows)
	s := make([]float32, m.Rows)
	for i := range q {
		q[i] = make([]int8, m.Cols)
		var err error
		if s[i], err = QuantizeRowInto(q[i], m.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return q, s
}

// The int8 GEMV, run over every row of an activation matrix, must agree
// exactly with a naive triple loop over the same quantized operands and
// the per-column weight scales: int32 accumulation is exact, so neither
// the pair layout, the zero-pair skip, the panels, the compaction and
// output chunks nor the dense walk of 4 to 8 outputs may change a bit. The
// shapes cover odd inputs (a padded last pair) on both paths, inputs past
// one compaction chunk and outputs past one panel chunk, and ReLU'd rows
// whose all-zero pairs are skipped; the last kind draws only ±127 and 0
// weights and activations, the values a row's and a column's maximum
// quantize to.
func TestQMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, shape := range [][3]int{{1, 1, 1}, {3, 5, 2}, {17, 33, 9}, {40, 130, 70}, {9, 257, 131}, {6, 602, 64}, {8, 64, 41}, {5, 16, 32}, {5, 32, 8}, {5, 8, 8}, {4, 64, 3}, {3, 7, 5}, {4, 31, 6}, {2, 9, 4}, {3, 1, 7}, {3, 301, 8}} {
		for _, kind := range []string{"dense", "relu", "extreme"} {
			m, k, n := shape[0], shape[1], shape[2]
			a := RandomMatrix(rng, m, k, 2)
			b := RandomMatrix(rng, k, n, 2)
			switch kind {
			case "relu":
				ReLU(a.Data)
			case "extreme":
				for _, x := range [][]float32{a.Data, b.Data} {
					for i := range x {
						x[i] = float32(rng.Intn(3) - 1)
					}
				}
			}
			qa, sa := quantizeRows(t, a)
			qb, sb := quantizeRows(t, b.T())
			qw, err := QuantizeWeights(b)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < m; i++ {
				got := make([]float32, n)
				QGemvInto(got, qa[i], sa[i], qw)
				for j := range got {
					var acc int32
					for kk := 0; kk < k; kk++ {
						acc += int32(qa[i][kk]) * int32(qb[j][kk])
					}
					if want := sa[i] * sb[j] * float32(acc); math.Float32bits(got[j]) != math.Float32bits(want) {
						t.Fatalf("shape %v %s: row %d column %d: QGemvInto %g, naive %g", shape, kind, i, j, got[j], want)
					}
				}
			}
		}
	}
}

// The quantized GEMV approximates the float product: relative error (vs
// the max magnitude of the float result) stays within the two-sided
// quantization noise, conservatively ~2/127 per operand plus accumulation.
func TestQMatMulApproximatesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := RandomMatrix(rng, 25, 60, 1)
	b := RandomMatrix(rng, 60, 18, 1)
	qa, sa := quantizeRows(t, a)
	qw, err := QuantizeWeights(b)
	if err != nil {
		t.Fatal(err)
	}
	got := NewMatrix(25, 18)
	for i := range qa {
		QGemvInto(got.Row(i), qa[i], sa[i], qw)
	}
	want := MatMul(a, b)

	var maxRef float64
	for _, v := range want.Data {
		if m := math.Abs(float64(v)); m > maxRef {
			maxRef = m
		}
	}
	if diff := float64(got.MaxAbsDiff(want)); diff > 0.03*maxRef {
		t.Fatalf("int8 GEMV error %g vs max |ref| %g exceeds 3%%", diff, maxRef)
	}
}

// A reduce chain of 600 rows, accumulated by QChain into a zeroed acc, must
// give the plain int32 Σq of every column, and exact zeros in the padding
// columns. Widths cover one 8-column chunk, partly filled strides, panels
// past 64 columns and Reddit's 602; 600 rows cross both widening points.
func TestAccRowChainMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, cols := range []int{1, 7, 8, 9, 16, 24, 41, 602} {
		q := NewQSumMatrix(9, cols)
		for i := 0; i < q.Rows; i++ {
			row := q.Row(i)[:cols]
			rng.Read(row)
			row[0] = 255 // the largest biased byte in one column of every row
		}
		rows := make([]int32, 600)
		want := make([]int32, q.Stride)
		for e := range rows {
			rows[e] = int32(rng.Intn(q.Rows))
			for j, b := range q.Row(int(rows[e])) {
				want[j] += int32(b) - 128
			}
		}
		acc := make([]int32, q.Stride)
		QChain(acc, q, rows)
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

// QChain must equal one naive add of each row's Σ(b−128), in list order,
// over lists of 0 to 600 rows (each side of the lanes' widening after 256
// and 512 rows) at every stride from 8 to 72 and at 136 and Reddit's 608,
// with rows repeated and the largest biased byte in one column of every
// row. It must add into acc, and the padding columns must sum to exactly
// zero.
func TestQChainMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	strides := []int{8, 16, 24, 32, 40, 48, 56, 64, 72, 136, 608}
	for _, stride := range strides {
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
			for _, r := range rows {
				for j, b := range q.Row(int(r)) {
					want[j] += int32(b) - 128
				}
			}
			got := append([]int32(nil), start...)
			QChain(got, q, rows)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("stride %d, %d rows: column %d QChain %d, per-row %d", q.Stride, n, j, got[j], want[j])
				}
				if j >= q.Cols && got[j] != start[j] {
					t.Fatalf("stride %d, %d rows: padding column %d moved by %d", q.Stride, n, j, got[j]-start[j])
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
