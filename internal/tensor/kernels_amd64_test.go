//go:build amd64 && !race

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The SSE2 kernels must match their portable loops bit for bit: at every
// width from 0 to 70 (each tail length of the 4-, 8- and 16-element steps),
// with slice starts offset by 0–3 elements so the vector loads are
// unaligned, with operands longer than the wrapper's bound, and on the edge
// values below. Each test compares the whole backing array, so a write past
// the slice the wrapper hands the assembly shows as a difference.

// f32Finite are the finite edge operands: ±0, subnormals, the smallest
// normal, ±1 and ±3e38, whose products overflow to ±Inf.
var f32Finite = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -1e-40,
	0x1p-126, 1, -1, 3e38, -3e38,
}

// f32Operand draws a normal random value or, three times in eight, an edge
// operand; ±Inf only when inf is set. Inputs never hold NaN (features are
// validated finite upstream), and a product gets at most one non-finite
// operand, because which NaN payload SSE keeps when both operands are NaN
// is unspecified.
func f32Operand(rng *rand.Rand, inf bool) float32 {
	switch k := rng.Intn(8); {
	case k == 2 && inf:
		return float32(math.Inf(1 - 2*rng.Intn(2)))
	case k <= 2:
		return f32Finite[rng.Intn(len(f32Finite))]
	}
	return float32(rng.NormFloat64())
}

// rowListCase draws one row-list kernel call: an nrows×width matrix whose
// backing array starts off elements into its allocation and runs past
// nrows·width, a list of n indices over it (n > nrows repeats rows; trial 2
// repeats one explicitly), n coefficients with forced ±0 entries, and an
// output row off elements into a longer backing array. The matrix holds
// ±Inf when infRows is set and the coefficients otherwise, so every
// product has at most one non-finite operand.
func rowListCase(rng *rand.Rand, width, off, n, trial int, infRows bool) (back, data []float32, nrows int, rows []int32, coefs []float32) {
	nrows = 6
	data = make([]float32, off+nrows*width+trial)[off:] // longer than the bound when trial > 0
	for i := range data {
		data[i] = f32Operand(rng, infRows)
	}
	rows = make([]int32, n)
	coefs = make([]float32, n+trial) // longer than the list when trial > 0
	for i := range rows {
		rows[i] = int32(rng.Intn(nrows))
		coefs[i] = f32Operand(rng, !infRows)
	}
	if trial == 2 && n >= 3 { // a chain naming one source twice in a row
		rows[2] = rows[1]
	}
	for i := 0; i < n; i += 5 {
		coefs[i] = float32(math.Copysign(0, float64(1-2*(i/5%2)))) // +0 and −0
	}
	back = make([]float32, off+width+4)
	for i := range back {
		back[i] = f32Operand(rng, true)
	}
	return back, data, nrows, rows, coefs
}

// rowListLengths are the list lengths the kernel tests sweep: 0–9 and one
// that crosses a VecMatInto compaction chunk.
var rowListLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, vecMatChunk + 5}

func TestAxpyRowsSSE2MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for width := 0; width <= 70; width++ {
		for off := 0; off <= 3; off++ {
			for _, n := range rowListLengths {
				for trial := 0; trial < 3; trial++ {
					back, data, nrows, rows, coefs := rowListCase(rng, width, off, n, trial, trial == 1)
					got := append([]float32(nil), back...)
					want := append([]float32(nil), back...)
					gi := axpyRows(got[off:off+width], data, nrows, rows, coefs)
					wi := axpyRowsGeneric(want[off:off+width], data, nrows, rows, coefs)
					if gi != n || wi != n || !bitsEqual(got, want) {
						t.Fatalf("width %d offset %d rows %v trial %d: SSE2 %d %v, generic %d %v",
							width, off, rows, trial, gi, got, wi, want)
					}
				}
			}
		}
	}
}

// The add kernel must match its loop on every operand f32Operand draws,
// ±Inf in any position included: an Inf + −Inf lane yields the default
// NaN on both paths, and a NaN then propagates unchanged.
func TestSumRowsSSE2MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for width := 0; width <= 70; width++ {
		for off := 0; off <= 3; off++ {
			for _, n := range rowListLengths {
				for trial := 0; trial < 3; trial++ {
					back, data, nrows, rows, _ := rowListCase(rng, width, off, n, trial, true)
					got := append([]float32(nil), back...)
					want := append([]float32(nil), back...)
					gi := sumRows(got[off:off+width], data, nrows, rows)
					wi := sumRowsGeneric(want[off:off+width], data, nrows, rows)
					if gi != n || wi != n || !bitsEqual(got, want) {
						t.Fatalf("width %d offset %d rows %v trial %d: SSE2 %d %v, generic %d %v",
							width, off, rows, trial, gi, got, wi, want)
					}
				}
			}
		}
	}
}

// int8Operand draws a random int8, or one of −128, −1, 0 and 127 a quarter
// of the time.
func int8Operand(rng *rand.Rand) int8 {
	if rng.Intn(4) == 0 {
		return []int8{-128, -1, 0, 127}[rng.Intn(4)]
	}
	return int8(rng.Intn(256) - 128)
}

func TestDotInt8SSE2MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for width := 0; width <= 70; width++ {
		for off := 0; off <= 3; off++ {
			a := make([]int8, off+width)
			b := make([]int8, off+width+off) // b longer than a when off > 0
			for i := range a {
				a[i] = int8Operand(rng)
			}
			for i := range b {
				b[i] = int8Operand(rng)
			}
			a, b = a[off:], b[off:]
			if got, want := dotInt8(a, b), dotInt8Generic(a, b); got != want {
				t.Fatalf("width %d offset %d: SSE2 %d, generic %d", width, off, got, want)
			}
		}
	}
	// −128·−128 in every column of a Reddit-width row: the largest product
	// the int16 pair sums of PMADDWL ever see.
	a := make([]int8, 602)
	for i := range a {
		a[i] = -128
	}
	const want = 602 * 128 * 128
	if got, gen := dotInt8(a, a), dotInt8Generic(a, a); got != want || gen != want {
		t.Fatalf("602 × (−128·−128): SSE2 %d, generic %d, want %d", got, gen, want)
	}
}

func TestAccRowChainSSE2MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for width := 0; width <= 70; width++ {
		for off := 0; off <= 3; off++ {
			row := make([]byte, off+width)
			rng.Read(row)
			row = row[off:]
			// The QSumMatrix contract (len(swar) == len(row)/4), a shorter
			// accumulator and a longer one.
			for _, words := range []int{width / 4, max(width/4-2, 0), width/4 + 3} {
				back := make([]uint64, off+words+2)
				for i := range back {
					back[i] = rng.Uint64() // PADDQ wraps like the uint64 add
				}
				got := append([]uint64(nil), back...)
				want := append([]uint64(nil), back...)
				accRowChain(got[off:off+words], row)
				accRowChainGeneric(want[off:off+words], row)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("width %d offset %d words %d: word %d SSE2 %#x, generic %#x",
							width, off, words, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// The four-row kernel must match its portable loop, and both must match
// four single-row folds, at every width from 0 to 70 with unaligned row
// starts, rows of unequal length, a repeated row, and arbitrary accumulator
// words (PADDQ wraps like the uint64 add).
func TestAccRow4ChainSSE2MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for width := 0; width <= 70; width++ {
		for off := 0; off <= 3; off++ {
			for trial := 0; trial < 3; trial++ {
				var r [4][]byte
				for k := range r {
					row := make([]byte, off+width+8*(trial&1)*k) // trial 1: longer rows
					rng.Read(row)
					r[k] = row[off:]
				}
				if trial == 2 { // a chain naming one source twice
					r[3] = r[1]
				}
				for _, words := range []int{width / 4, max(width/4-2, 0), width/4 + 3} {
					back := make([]uint64, off+words+2)
					for i := range back {
						back[i] = rng.Uint64()
					}
					got := append([]uint64(nil), back...)
					want := append([]uint64(nil), back...)
					four := append([]uint64(nil), back...)
					accRow4Chain(got[off:off+words], r[0], r[1], r[2], r[3])
					accRow4ChainGeneric(want[off:off+words], r[0], r[1], r[2], r[3])
					for k := range r {
						accRowChainGeneric(four[off:off+words], r[k][:len(r[0])])
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("width %d offset %d trial %d words %d: word %d SSE2 %#x, generic %#x",
								width, off, trial, words, i, got[i], want[i])
						}
						if want[i] != four[i] {
							t.Fatalf("width %d offset %d trial %d words %d: word %d four-row %#x, four single rows %#x",
								width, off, trial, words, i, want[i], four[i])
						}
					}
				}
			}
		}
	}
}

// chainBlockEdges rows of byte 255 fill every 16-bit lane to 256·255 =
// 65280, the most flushChain's contract allows; the flushed sums must be
// 256·(255−128) in every column on the single-row and the four-row path.
func TestAccRowChainSSE2LaneLimit(t *testing.T) {
	stride := chainStride(602)
	row := make([]byte, stride)
	for i := range row {
		row[i] = 255
	}
	got := make([]uint64, stride/4)
	got4 := make([]uint64, stride/4)
	want := make([]uint64, stride/4)
	want4 := make([]uint64, stride/4)
	for e := 0; e < chainBlockEdges; e++ {
		accRowChain(got, row)
		accRowChainGeneric(want, row)
	}
	for e := 0; e < chainBlockEdges; e += 4 {
		accRow4Chain(got4, row, row, row, row)
		accRow4ChainGeneric(want4, row, row, row, row)
	}
	for i := range got {
		if got[i] != want[i] || got4[i] != want[i] || want4[i] != want[i] {
			t.Fatalf("word %d: SSE2 %#x, generic %#x, four-row SSE2 %#x, four-row generic %#x",
				i, got[i], want[i], got4[i], want4[i])
		}
	}
	for _, swar := range [][]uint64{got, got4} {
		acc := make([]int32, stride)
		flushChain(acc, swar, chainBlockEdges)
		for j, v := range acc {
			if v != chainBlockEdges*127 {
				t.Fatalf("column %d: flushed %d, want %d", j, v, chainBlockEdges*127)
			}
		}
	}
}

// fuzzOperands hands out fuzzer bytes as kernel operands, zeros once the
// input runs out.
type fuzzOperands []byte

func (d *fuzzOperands) next() byte {
	if len(*d) == 0 {
		return 0
	}
	v := (*d)[0]
	*d = (*d)[1:]
	return v
}

// f32 decodes four bytes as a float32. A NaN pattern has its top exponent
// bit cleared, which makes it finite: kernel inputs never hold NaN.
func (d *fuzzOperands) f32() float32 {
	bits := uint32(d.next()) | uint32(d.next())<<8 | uint32(d.next())<<16 | uint32(d.next())<<24
	if v := math.Float32frombits(bits); v == v {
		return v
	}
	return math.Float32frombits(bits &^ 0x40000000)
}

func (d *fuzzOperands) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(d.next()) << (8 * i)
	}
	return v
}

// FuzzKernels decodes the fuzzer's bytes into a width, a slice offset and
// operands for the five SSE2 kernels, and requires each to match its
// portable loop bit for bit. The row-list kernels get a matrix of up to
// eight rows and a list of up to 32 indices, some of them outside the
// matrix, and must also stop at the same list position.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{37, 1, 0x00, 0x00, 0x80, 0x7f, 0xff, 0xff, 0x7f, 0x7f, 0x01, 0x00, 0x00, 0x00})
	f.Add([]byte{70, 3, 0x80, 0x80, 0x80, 0x80, 0xff, 0x7f, 0x00, 0x80, 0x55, 0xaa})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzOperands(data)
		width := int(d.next())
		off := int(d.next() % 4)
		nrows := int(d.next()%8) + 1
		list := make([]int32, d.next()%33)
		for i := range list {
			// Mostly in range; a byte above 0xF0 names a row past the
			// end or a negative one.
			switch b := d.next(); {
			case b > 0xF8:
				list[i] = -int32(b - 0xF8)
			case b > 0xF0:
				list[i] = int32(nrows) + int32(b-0xF1)
			default:
				list[i] = int32(int(b) % nrows)
			}
		}
		coefs := make([]float32, len(list))
		for i := range coefs {
			coefs[i] = d.f32()
		}
		m := make([]float32, off+nrows*width)
		for i := range m {
			m[i] = d.f32()
		}
		o := make([]float32, off+width)
		for i := range o {
			o[i] = d.f32()
		}
		sum := append([]float32(nil), o...)
		gotF := append([]float32(nil), o...)
		gi := axpyRows(gotF[off:], m[off:], nrows, list, coefs)
		wi := axpyRowsGeneric(o[off:], m[off:], nrows, list, coefs)
		// A list with a bad index leaves o unspecified: the caller panics.
		valid := gi == len(list)
		if gi != wi || valid && !bitsEqual(gotF, o) {
			t.Fatalf("axpyRows width %d offset %d rows %v: SSE2 %d %v, generic %d %v",
				width, off, list, gi, gotF, wi, o)
		}
		gotA := append([]float32(nil), sum...)
		gi = sumRows(gotA[off:], m[off:], nrows, list)
		wi = sumRowsGeneric(sum[off:], m[off:], nrows, list)
		if gi != wi || valid && !bitsEqual(gotA, sum) {
			t.Fatalf("sumRows width %d offset %d rows %v: SSE2 %d %v, generic %d %v",
				width, off, list, gi, gotA, wi, sum)
		}

		x := make([]int8, off+width)
		y := make([]int8, off+width)
		for i := range x {
			x[i], y[i] = int8(d.next()), int8(d.next())
		}
		if got, want := dotInt8(x[off:], y[off:]), dotInt8Generic(x[off:], y[off:]); got != want {
			t.Fatalf("dotInt8 width %d offset %d: SSE2 %d, generic %d", width, off, got, want)
		}

		row := make([]byte, off+width)
		for i := range row {
			row[i] = d.next()
		}
		swar := make([]uint64, off+(width+7)/8*2)
		for i := range swar {
			swar[i] = d.u64()
		}
		gotS := append([]uint64(nil), swar...)
		accRowChain(gotS[off:], row[off:])
		accRowChainGeneric(swar[off:], row[off:])
		for i := range swar {
			if gotS[i] != swar[i] {
				t.Fatalf("accRowChain width %d offset %d: word %d SSE2 %#x, generic %#x",
					width, off, i, gotS[i], swar[i])
			}
		}

		var rows [4][]byte
		rows[0] = row[off:]
		for k := 1; k < 4; k++ {
			rows[k] = make([]byte, width)
			for i := range rows[k] {
				rows[k][i] = d.next()
			}
		}
		got4 := append([]uint64(nil), swar...)
		accRow4Chain(got4[off:], rows[0], rows[1], rows[2], rows[3])
		accRow4ChainGeneric(swar[off:], rows[0], rows[1], rows[2], rows[3])
		for i := range swar {
			if got4[i] != swar[i] {
				t.Fatalf("accRow4Chain width %d offset %d: word %d SSE2 %#x, generic %#x",
					width, off, i, got4[i], swar[i])
			}
		}
	})
}

// benchKernel runs asm, the production path, and generic, the same work on
// the portable loops, as sub-benchmarks.
func benchKernel(b *testing.B, bytes int64, asm, generic func()) {
	b.Run("asm", func(b *testing.B) { runKernel(b, bytes, asm) })
	b.Run("generic", func(b *testing.B) { runKernel(b, bytes, generic) })
}
