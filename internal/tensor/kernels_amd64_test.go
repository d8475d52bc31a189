//go:build amd64 && !race

package tensor

import (
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"testing"
)

// The AVX2 kernels must match their portable loops bit for bit: at every
// width from 0 to 70 (each panel, overlap, masked tail and narrow walk),
// with slice starts offset by 0–3 elements so the vector loads are
// unaligned, with operands longer than the wrapper's bound, and on the edge
// values below. Each test compares the whole backing array, so a write past
// the slice the wrapper hands the assembly shows as a difference. The
// tests keep the names they had when these kernels were SSE2; the wrappers
// run the AVX2 bodies on every host where TestAVX2Selected passes and
// does not skip.

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
// operand, because which NaN payload the vector unit keeps when both operands are NaN
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
						t.Fatalf("width %d offset %d rows %v trial %d: AVX2 %d %v, generic %d %v",
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
						t.Fatalf("width %d offset %d rows %v trial %d: AVX2 %d %v, generic %d %v",
							width, off, rows, trial, gi, got, wi, want)
					}
				}
			}
		}
	}
}

// TestAVX2Selected fails when the CPU reports AVX2, with the YMM state
// saved by the OS, but the wrappers run the portable loops: every
// differential test in this file would then compare the portable loops
// with themselves. It decodes the CPUID and XGETBV bits itself, and on
// Linux also reads the kernel's flag list.
func TestAVX2Selected(t *testing.T) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var ebx7 uint32
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	// XGETBV faults unless OSXSAVE (leaf 1, ECX bit 27) is set.
	want := ecx1>>27&1 == 1 && ecx1>>28&1 == 1 && ebx7>>5&1 == 1 && xgetbv()&6 == 6
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil &&
		regexp.MustCompile(`(?m)^flags\s*:.*\bavx2\b`).Match(info) && !want {
		t.Fatal("the kernel lists avx2 but CPUID and XGETBV, as decoded here, do not")
	}
	if useAVX2 != want || (KernelFamily() == "avx2") != want {
		t.Fatalf("CPU reports AVX2 %v, but useAVX2 is %v and KernelFamily is %q", want, useAVX2, KernelFamily())
	}
	if !want {
		t.Skip("no AVX2 on this host: the differential tests compare the portable loops with themselves")
	}
}

// withKernels runs fn with the AVX2 bodies selected when avx2 is set and
// the portable loops otherwise, then restores the start-up selection.
func withKernels(avx2 bool, fn func()) {
	defer func(was bool) { useAVX2 = was }(useAVX2)
	useAVX2 = avx2
	fn()
}

// Every wrapper must give the same bits, and stop at the same list
// position, with the selection forced to the portable loops and to the
// AVX2 bodies, over the rowListCase cases with int8 operands drawn beside
// them. This keeps the wrappers' portable branch, which only a host
// without AVX2 takes, under test on hosts that have it.
func TestKernelSelectionBitIdentical(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(38))
	for width := 0; width <= 70; width++ {
		for off := 0; off <= 3; off++ {
			for _, n := range rowListLengths {
				for trial := 0; trial < 3; trial++ {
					back, data, nrows, rows, coefs := rowListCase(rng, width, off, n, trial, trial == 1)
					qdata := make([]byte, nrows*(width&^7))
					rng.Read(qdata)
					w := make([]int8, nrows*2*width)
					for i := range w {
						w[i] = int8Operand(rng)
					}
					x := make([]int8, 2*nrows)
					for i := range x {
						x[i] = int8Operand(rng)
					}
					pairs := make([]int32, n)
					qback := make([]int32, len(back))
					for i := range pairs {
						pairs[i] = packPair(int8Operand(rng), int8Operand(rng))
					}
					for i := range qback {
						qback[i] = int32(rng.Uint32())
					}
					run := func(avx2 bool) (bits []uint32) {
						withKernels(avx2, func() {
							f := append([]float32(nil), back...)
							s := append([]float32(nil), back...)
							q := append([]int32(nil), qback...)
							g := append([]int32(nil), qback...)
							bits = append(bits,
								uint32(axpyRows(f[off:off+width], data, nrows, rows, coefs)),
								uint32(sumRows(s[off:off+width], data, nrows, rows)),
								uint32(qsumRows(q[off:off+width], qdata, nrows, rows)),
								uint32(qgemvRows(g[off:off+width], w, 2*width, nrows, rows, pairs)))
							if 4 <= width && width <= 8 {
								qgemv8Dense(g[off:off+width], w, 2*width, x)
							}
							for _, v := range slices.Concat(f, s) {
								bits = append(bits, math.Float32bits(v))
							}
							for _, v := range slices.Concat(q, g) {
								bits = append(bits, uint32(v))
							}
						})
						return bits
					}
					if avx2, portable := run(true), run(false); !slices.Equal(avx2, portable) {
						t.Fatalf("width %d offset %d rows %v trial %d: AVX2 selected %v, portable %v",
							width, off, rows, trial, avx2, portable)
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

// packPair packs an input pair as compactPairs does: x0 in the low int16,
// x1 in the high one.
func packPair(x0, x1 int8) int32 {
	return int32(uint16(int16(x0))) | int32(x1)<<16
}

// The int8 GEMV kernel must match its loop at every width from 0 to 70
// (each panel, overlapping half and tail), with the panel and the weight
// rows starting 0–3 elements into their allocations, weight rows wider
// than the panel (a block of a wider output), operands longer than the
// bound, repeated rows, and int8Operand's −128, −1, 0 and 127 in both the
// weights and the pairs. The whole int32 backing array is compared.
func TestQGemvRowsSSE2MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for width := 0; width <= 70; width++ {
		for off := 0; off <= 3; off++ {
			for _, n := range rowListLengths {
				for trial := 0; trial < 3; trial++ {
					const nrows = 6
					stride := 2*width + 2*trial
					w := make([]int8, off+(nrows-1)*stride+2*width+trial)[off:]
					for i := range w {
						w[i] = int8Operand(rng)
					}
					rows := make([]int32, n)
					pairs := make([]int32, n+trial)
					for i := range rows {
						rows[i] = int32(rng.Intn(nrows))
						pairs[i] = packPair(int8Operand(rng), int8Operand(rng))
					}
					if trial == 2 && n >= 3 {
						rows[2] = rows[1]
					}
					back := make([]int32, off+width+4)
					for i := range back {
						back[i] = int32(rng.Uint32())
					}
					got := append([]int32(nil), back...)
					want := append([]int32(nil), back...)
					gi := qgemvRows(got[off:off+width], w, stride, nrows, rows, pairs)
					wi := qgemvRowsGeneric(want[off:off+width], w, stride, nrows, rows, pairs)
					if gi != n || wi != n || !slices.Equal(got, want) {
						t.Fatalf("width %d offset %d rows %v trial %d: AVX2 %d %v, generic %d %v",
							width, off, rows, trial, gi, got, wi, want)
					}
				}
			}
		}
	}
	// (−128, −128) against −128 weights over 301 pairs, a Reddit-width row:
	// the largest pair sum VPMADDWD ever sees, in every column of a panel.
	w := make([]int8, 301*128)
	for i := range w {
		w[i] = -128
	}
	rows := make([]int32, 301)
	pairs := make([]int32, 301)
	for i := range rows {
		rows[i], pairs[i] = int32(i), packPair(-128, -128)
	}
	got, gen := make([]int32, 64), make([]int32, 64)
	qgemvRows(got, w, 128, 301, rows, pairs)
	qgemvRowsGeneric(gen, w, 128, 301, rows, pairs)
	const want = 602 * 128 * 128
	for j := range got {
		if got[j] != want || gen[j] != want {
			t.Fatalf("column %d of 602 × (−128·−128): AVX2 %d, generic %d, want %d", j, got[j], gen[j], want)
		}
	}
}

// The dense 8-column GEMV walk must match its loop at every width it
// takes (4 to 8: each overlap of its two 4-column halves), with the panel
// and the weight rows starting 0–3 elements into their allocations, weight
// rows wider than the panel, rows of 0 to 20 inputs (an odd last input is
// left to the caller, so both sides skip it) and int8Operand's edge
// values. The whole int32 backing array is compared.
func TestQGemv8DenseSSE2MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for width := 4; width <= 8; width++ {
		for off := 0; off <= 3; off++ {
			for n := 0; n <= 20; n++ {
				for trial := 0; trial < 3; trial++ {
					stride := 2*width + 2*trial
					w := make([]int8, off+max(n/2-1, 0)*stride+2*width+trial)[off:]
					for i := range w {
						w[i] = int8Operand(rng)
					}
					x := make([]int8, off+n+trial)[off:][:n]
					for i := range x {
						x[i] = int8Operand(rng)
					}
					back := make([]int32, off+width+4)
					for i := range back {
						back[i] = int32(rng.Uint32())
					}
					got := append([]int32(nil), back...)
					want := append([]int32(nil), back...)
					qgemv8Dense(got[off:off+width], w, stride, x)
					qgemv8DenseGeneric(want[off:off+width], w, stride, x)
					if !slices.Equal(got, want) {
						t.Fatalf("width %d offset %d inputs %v trial %d: AVX2 %v, generic %v",
							width, off, x, trial, got, want)
					}
				}
			}
		}
	}
}

// qsumListLengths are the chain lengths the int8 kernel tests sweep: 0–9,
// and each side of the 16-bit lanes' widening after 256 and 512 rows.
var qsumListLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257, 511, 512, 513, 600}

// The int8 chain kernel must match its loop at every width from 0 to 70
// (the kernels sum its whole 8-column chunks, so each walk of 8, 16, 32
// and 64 columns), with the accumulator and the byte rows starting 0–3
// elements into their allocations, rows longer than the bound, repeated
// rows, lists of 0–600 rows across both widening points, and arbitrary
// starting sums (VPADDD wraps like the int32 add). The whole int32 backing
// array is compared.
func TestQSumRowsSSE2MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for width := 0; width <= 70; width++ {
		for off := 0; off <= 3; off++ {
			for _, n := range qsumListLengths {
				for trial := 0; trial < 3; trial++ {
					const nrows = 6
					data := make([]byte, off+nrows*(width&^7)+trial)[off:]
					rng.Read(data)
					rows := make([]int32, n)
					for i := range rows {
						rows[i] = int32(rng.Intn(nrows))
					}
					if trial == 2 && n >= 3 {
						rows[2] = rows[1]
					}
					back := make([]int32, off+width+4)
					for i := range back {
						back[i] = int32(rng.Uint32())
					}
					got := append([]int32(nil), back...)
					want := append([]int32(nil), back...)
					gi := qsumRows(got[off:off+width], data, nrows, rows)
					wi := qsumRowsGeneric(want[off:off+width], data, nrows, rows)
					if gi != n || wi != n || !slices.Equal(got, want) {
						t.Fatalf("width %d offset %d %d rows trial %d: AVX2 %d %v, generic %d %v",
							width, off, n, trial, gi, got, wi, want)
					}
				}
			}
		}
	}
}

// checkQSumRowsSplit accumulates one chain through qsumRows in calls of
// chunk rows each. Each call widens its 16-bit lanes at its own end, so no
// split of a list may change a bit: the sums must match the portable loop
// fed the same calls and one AVX2 call over the whole list. It sweeps every
// width from 0 to 70 with the accumulator and the byte rows starting 0–3
// elements into their allocations, qsumListLengths with a repeated row,
// and arbitrary starting sums, and compares the whole int32 backing array.
func checkQSumRowsSplit(t *testing.T, seed int64, chunk int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for width := 0; width <= 70; width++ {
		for off := 0; off <= 3; off++ {
			for _, n := range qsumListLengths {
				const nrows = 5
				data := make([]byte, off+nrows*(width&^7))[off:]
				rng.Read(data)
				rows := make([]int32, n)
				for i := range rows {
					rows[i] = int32(rng.Intn(nrows))
				}
				if n >= 3 {
					rows[2] = rows[1]
				}
				back := make([]int32, off+width+4)
				for i := range back {
					back[i] = int32(rng.Uint32())
				}
				got := append([]int32(nil), back...)
				want := append([]int32(nil), back...)
				whole := append([]int32(nil), back...)
				for lo := 0; lo < n; lo += chunk {
					part := rows[lo:min(lo+chunk, n)]
					qsumRows(got[off:off+width], data, nrows, part)
					qsumRowsGeneric(want[off:off+width], data, nrows, part)
				}
				qsumRows(whole[off:off+width], data, nrows, rows)
				if !slices.Equal(got, want) || !slices.Equal(whole, want) {
					t.Fatalf("width %d offset %d %d rows in calls of %d: AVX2 %v, generic %v, one AVX2 call %v",
						width, off, n, chunk, got, want, whole)
				}
			}
		}
	}
}

// A chain accumulated one row per call must match the portable loop and
// one call over the whole list.
func TestAccRowChainSSE2MatchesGeneric(t *testing.T) {
	checkQSumRowsSplit(t, 34, 1)
}

// A chain accumulated four rows per call, the last call taking the tail,
// must match the portable loop and one call over the whole list.
func TestAccRow4ChainSSE2MatchesGeneric(t *testing.T) {
	checkQSumRowsSplit(t, 37, 4)
}

// chainBlockEdges rows of byte 255 fill every 16-bit lane to 256·255 =
// 65280, the most a lane holds before it widens, and rows of byte 0 give
// the largest negative sums. Each column must come out n·127, or n·(−128),
// on the AVX2 kernel and the portable loop, at every stride to 128 (each
// walk and each combination of them), for one block, two blocks and two
// blocks and a row.
func TestQSumRowsSSE2LaneLimit(t *testing.T) {
	for stride := 8; stride <= 128; stride += 8 {
		for _, b := range []byte{255, 0} {
			row := make([]byte, stride)
			for i := range row {
				row[i] = b
			}
			for _, n := range []int{chainBlockEdges, 2 * chainBlockEdges, 2*chainBlockEdges + 1} {
				rows := make([]int32, n)
				got, gen := make([]int32, stride), make([]int32, stride)
				qsumRows(got, row, 1, rows)
				qsumRowsGeneric(gen, row, 1, rows)
				want := int32(n) * (int32(b) - 128)
				for j := range got {
					if got[j] != want || gen[j] != want {
						t.Fatalf("stride %d, %d rows of %d: column %d AVX2 %d, generic %d, want %d",
							stride, n, b, j, got[j], gen[j], want)
					}
				}
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

func (d *fuzzOperands) u32() uint32 {
	return uint32(d.next()) | uint32(d.next())<<8 | uint32(d.next())<<16 | uint32(d.next())<<24
}

// f32 decodes four bytes as a float32. A NaN pattern has its top exponent
// bit cleared, which makes it finite: kernel inputs never hold NaN.
func (d *fuzzOperands) f32() float32 {
	bits := d.u32()
	if v := math.Float32frombits(bits); v == v {
		return v
	}
	return math.Float32frombits(bits &^ 0x40000000)
}

// FuzzKernels decodes the fuzzer's bytes into a width, a slice offset and
// operands for the four AVX2 row-list kernels and the dense GEMV walk, and
// requires each to match its portable loop bit for bit. Each row-list
// kernel gets a matrix of up to eight rows and a list of up to 32 indices,
// some of them outside the matrix, and must also stop at the same list
// position.
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
			t.Fatalf("axpyRows width %d offset %d rows %v: AVX2 %d %v, generic %d %v",
				width, off, list, gi, gotF, wi, o)
		}
		gotA := append([]float32(nil), sum...)
		gi = sumRows(gotA[off:], m[off:], nrows, list)
		wi = sumRowsGeneric(sum[off:], m[off:], nrows, list)
		if gi != wi || valid && !bitsEqual(gotA, sum) {
			t.Fatalf("sumRows width %d offset %d rows %v: AVX2 %d %v, generic %d %v",
				width, off, list, gi, gotA, wi, sum)
		}

		// The int8 kernels take the same list over a byte matrix of
		// width&^7-byte rows and a pair-layout weight matrix of 2·width-byte
		// rows.
		qdata := make([]byte, off+nrows*(width&^7))
		for i := range qdata {
			qdata[i] = d.next()
		}
		qw := make([]int8, off+nrows*2*width)
		for i := range qw {
			qw[i] = int8(d.next())
		}
		pairs := make([]int32, len(list))
		for i := range pairs {
			pairs[i] = packPair(int8(d.next()), int8(d.next()))
		}
		acc := make([]int32, off+width)
		for i := range acc {
			acc[i] = int32(d.u32())
		}
		sums := append([]int32(nil), acc...)
		gotQ := append([]int32(nil), acc...)
		gi = qsumRows(gotQ[off:], qdata[off:], nrows, list)
		wi = qsumRowsGeneric(sums[off:], qdata[off:], nrows, list)
		if gi != wi || valid && !slices.Equal(gotQ, sums) {
			t.Fatalf("qsumRows width %d offset %d rows %v: AVX2 %d %v, generic %d %v",
				width, off, list, gi, gotQ, wi, sums)
		}
		dense := append([]int32(nil), acc...)
		gotG := append([]int32(nil), acc...)
		gi = qgemvRows(gotG[off:], qw[off:], 2*width, nrows, list, pairs)
		wi = qgemvRowsGeneric(acc[off:], qw[off:], 2*width, nrows, list, pairs)
		if gi != wi || valid && !slices.Equal(gotG, acc) {
			t.Fatalf("qgemvRows width %d offset %d rows %v: AVX2 %d %v, generic %d %v",
				width, off, list, gi, gotG, wi, acc)
		}
		// The dense walk reads every row of qw in order, the first
		// 2·nrows inputs of the decoded bytes.
		if 4 <= width && width <= 8 {
			x := make([]int8, 2*nrows)
			for i := range x {
				x[i] = int8(d.next())
			}
			gotD := append([]int32(nil), dense...)
			qgemv8Dense(gotD[off:], qw[off:], 2*width, x)
			qgemv8DenseGeneric(dense[off:], qw[off:], 2*width, x)
			if !slices.Equal(gotD, dense) {
				t.Fatalf("qgemv8Dense width %d offset %d inputs %v: AVX2 %v, generic %v",
					width, off, x, gotD, dense)
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
