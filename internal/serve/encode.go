package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"sync"

	"scale/internal/tensor"
)

// Response encoding (DESIGN §4h, "Response encoding"). A /v1/infer answer
// is almost entirely float32s: 38,171 of them for a 931×41 Reddit-scale
// response. encoding/json reaches each one through reflection and writes
// it with strconv's general shortest-digit path. writeInfer builds the same
// bytes directly: the envelope around the two strings, which encoding/json
// still escapes, and every value through appendFloat32JSON, a port of the
// float32 branch of strconv's Ryū shortest path (Adams, "Ryū: fast
// float-to-string conversion", PLDI 2018) that keeps the digits in one
// uint32. Every finite response is byte-identical to what json.Encoder
// writes for the same payload: TestAppendFloat32Exhaustive checks all 2^32
// bit patterns, and FuzzAppendFloat32 and
// TestInferResponseMatchesEncodingJSON hold the two encoders together.

// inferBufs recycles writeInfer's body buffers, about 450 KB for a
// Reddit-scale response.
var inferBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeInfer answers a /v1/infer request with rows as its embeddings:
// {"model":…,"precision":…,"embeddings":[[…],…]} and a newline. It builds
// the whole body first and writes it in one Write after the 200, as
// json.Encoder does, so a non-finite value, which encoding/json refuses
// too, writes nothing and returns a tensor.ErrNonFinite error naming the
// first row that holds one.
func writeInfer(w http.ResponseWriter, model, precision string, rows [][]float32) error {
	bp := inferBufs.Get().(*[]byte)
	defer inferBufs.Put(bp)
	// Room for every value at its longest (a sign, 21 digits, a comma), so
	// that a buffer the pool lost to a collection is allocated once rather
	// than grown through every size below the body's.
	size := 64 + len(model) + len(precision)
	for _, row := range rows {
		size += 2 + 23*len(row)
	}
	b := append(slices.Grow((*bp)[:0], size), `{"model":`...)
	b = appendJSONString(b, model)
	b = append(b, `,"precision":`...)
	b = appendJSONString(b, precision)
	b = append(b, `,"embeddings":`...)
	// No route answers nil rows, but encoding/json writes them as null.
	if rows == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, row := range rows {
			if i > 0 {
				b = append(b, ',')
			}
			if row == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '[')
			for j, f := range row {
				if j > 0 {
					b = append(b, ',')
				}
				var ok bool
				if b, ok = appendFloat32JSON(b, f); !ok {
					*bp = b
					return fmt.Errorf("serve: embedding row %d: %w", i, tensor.ErrNonFinite)
				}
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	b = append(b, "}\n"...)
	*bp = b
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // the client is gone if this fails; nothing to do
	return nil
}

// appendJSONString appends s as encoding/json writes a string field: quoted,
// with <, > and & escaped.
func appendJSONString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// appendFloat32JSON appends f as encoding/json writes a float32 and reports
// whether f was finite; NaN and ±Inf append nothing. The layout is
// encoding/json's: the shortest digits that parse back to f, in 'f' form
// for 1e-6 ≤ |f| < 1e21 and zero, otherwise in 'e' form with the exponent
// unpadded (1e-7, 1.5e+21); -0 keeps its sign.
func appendFloat32JSON(b []byte, f float32) ([]byte, bool) {
	fb := math.Float32bits(f)
	exp := int(fb>>23) & 0xff
	mant := fb & (1<<23 - 1)
	if exp == 0xff {
		return b, false
	}
	if fb>>31 != 0 {
		b = append(b, '-')
	}
	switch {
	case exp == 0 && mant == 0:
		return append(b, '0'), true
	case exp == 0:
		exp = 1 // subnormal
	default:
		mant |= 1 << 23
	}
	d, e := shortest32(mant, exp-127-23)
	// d has nd digits, ⌊bitlen·log10 2⌋ or one more, and the decimal
	// point sits after digit dp. Each layout writes its bytes in place.
	nd := bits.Len32(d) * 1233 >> 12
	if d >= pow10u32[nd] {
		nd++
	}
	dp := nd + e
	n := len(b)
	if cap(b)-n < 24 { // the widest layout: 21 digits
		b = slices.Grow(b, 24)
	}
	if abs := math.Float32frombits(fb &^ (1 << 31)); abs < 1e-6 || abs >= 1e21 {
		if nd == 1 {
			b = append(b, byte('0'+d))
		} else {
			b = b[:n+nd+1]
			d = putDigits(b[n+2:], d)
			b[n], b[n+1] = byte('0'+d), '.'
		}
		// Here the exponent is at most -7 or at least 21, so only
		// negative ones can have one digit, and encoding/json cuts
		// strconv's e-07 to e-7.
		x := dp - 1
		if x < 0 {
			b = append(b, 'e', '-')
			x = -x
		} else {
			b = append(b, 'e', '+')
		}
		if x < 10 {
			return append(b, byte('0'+x)), true
		}
		return append(b, twoDigits[2*x], twoDigits[2*x+1]), true
	}
	switch {
	case dp <= 0: // 0.000ddd
		b = b[:n+2-dp+nd]
		b[n], b[n+1] = '0', '.'
		for i := n + 2; i < n+2-dp; i++ {
			b[i] = '0'
		}
		putDigits(b[n+2-dp:], d)
	case dp < nd: // dd.ddd
		b = b[:n+nd+1]
		d = putDigits(b[n+dp+1:], d)
		b[n+dp] = '.'
		putDigits(b[n:n+dp], d)
	default: // ddd000
		b = b[:n+dp]
		putDigits(b[n:n+nd], d)
		for i := n + nd; i < n+dp; i++ {
			b[i] = '0'
		}
	}
	return b, true
}

// putDigits writes the low len(dst) decimal digits of d into dst and
// returns the digits above them.
func putDigits(dst []byte, d uint32) uint32 {
	i := len(dst)
	for ; i >= 2; i -= 2 {
		r := d % 100
		d /= 100
		dst[i-2], dst[i-1] = twoDigits[2*r], twoDigits[2*r+1]
	}
	if i == 1 {
		dst[0] = byte('0' + d%10)
		d /= 10
	}
	return d
}

// twoDigits holds "00" through "99".
const twoDigits = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// shortest32 returns the shortest decimal d·10^e, d free of trailing zeros,
// that rounds to the positive float32 mant·2^exp (mant < 2^24), chosen as
// strconv's ryuFtoaShortest chooses it: the bounds of computeBounds, each
// multiplied by 10^q through mult64bitPow10's 64-bit product, the exactness
// tests that decide whether a bound is admissible, and ryuDigits' split at
// 10^9. Its comments name the strconv steps they port.
func shortest32(mant uint32, exp int) (uint32, int) {
	// An integer with fewer bits than the mantissa: its neighbours are
	// not admissible, so its digits are its own.
	if exp <= 0 && bits.TrailingZeros32(mant) >= -exp {
		return trimZeros(mant>>uint(-exp), 0)
	}
	// computeBounds: the halfway points to the neighbours, (ml, mu)×2^e2
	// around mc×2^e2. Past an exponent boundary the lower gap is half the
	// upper one.
	ml, mc, mu, e2 := 2*mant-1, 2*mant, 2*mant+1, exp-1
	if mant == 1<<23 && exp != -149 {
		ml, mc, mu, e2 = 4*mant-1, 4*mant, 4*mant+2, exp-2
	}
	if e2 == 0 { // the bounds are integers already
		return ryuDigits(ml, mc, mu, true, false, 0)
	}
	// mult64bitPow10: multiply each bound by 10^q, the smallest power of
	// ten above 2^-e2, keeping the 64×64-bit product shifted right by 57
	// and whether the bits shifted out were all zero.
	q := (-e2*78913)>>18 + 1 // ⌊-e2·log10 2⌋ + 1
	pow := pow10x64[q-pow10Min]
	dl, dl0 := mulPow10(ml, pow)
	dc, dc0 := mulPow10(mc, pow)
	du, du0 := mulPow10(mu, pow)
	// Division by 5^k for k ≤ 24 may be exact; 5^25 has 59 bits.
	if q < 0 && q >= -24 {
		dl0 = dl0 || divisibleByPower5(ml, -q)
		dc0 = dc0 || divisibleByPower5(mc, -q)
		du0 = du0 || divisibleByPower5(mu, -q)
	}
	// Shift the products to integers, keeping the dropped fractions.
	extra := uint(6 - e2 - (q*108853)>>15) // 6 - e2 - ⌊q·log2 10⌋
	mask := uint32(1)<<extra - 1
	fracl, fracc, fracu := dl&mask, dc&mask, du&mask
	dl, dc, du = dl>>extra, dc>>extra, du>>extra
	// du is admissible when it lies strictly inside the interval, or on
	// its edge with an even mantissa (ties round to even on parse).
	if du0 && fracu == 0 && mant&1 != 0 {
		du--
	}
	// Round dc: an exact product rounds half to even, a truncated one up
	// from half.
	half := uint32(1) << (extra - 1)
	cup := fracc > half || fracc == half && (!dc0 || dc&1 == 1)
	// dl is admissible only as an exact bound of an even mantissa.
	if !(dl0 && fracl == 0 && mant&1 == 0) {
		dl++
	}
	return ryuDigits(dl, dc, du, dc0 && fracc == 0, cup, -q)
}

// mulPow10 returns the top bits of m·pow, m < 2^26, dropping the low 57 of
// the 128-bit product, and whether the dropped bits were all zero.
func mulPow10(m uint32, pow uint64) (uint32, bool) {
	hi, lo := bits.Mul64(uint64(m), pow)
	return uint32(hi<<7 | lo>>57), lo<<7 == 0
}

// divisibleByPower5 reports whether 5^k divides m.
func divisibleByPower5(m uint32, k int) bool {
	for ; k > 0; k-- {
		if m%5 != 0 {
			return false
		}
		m /= 5
	}
	return true
}

// ryuDigits returns the shortest digits d in [lower, upper] nearest central
// as d·10^(e+k), splitting at 10^9 as strconv's ryuDigits does: below it one
// trim; with differing high parts, the low nine digits dropped at once and
// the high parts trimmed; with equal ones, the low parts trimmed under the
// common high digit. c0 says central's dropped fraction is zero and cup
// that central rounds up.
func ryuDigits(lower, central, upper uint32, c0, cup bool, e int) (uint32, int) {
	if upper < 1e9 {
		d, k := ryuDigits32(lower, central, upper, c0, cup)
		return trimZeros(d, e+k)
	}
	lhi, llo := lower/1e9, lower%1e9
	chi, clo := central/1e9, central%1e9
	uhi, ulo := upper/1e9, upper%1e9
	if lhi < uhi {
		if llo != 0 {
			lhi++
		}
		d, k := ryuDigits32(lhi, chi, uhi, c0 && clo == 0, clo > 5e8 || clo == 5e8 && cup)
		return trimZeros(d, e+k+9)
	}
	d, k := ryuDigits32(llo, clo, ulo, c0, cup)
	return trimZeros(d+chi*pow10u32[9-k], e+k)
}

// ryuDigits32 trims decimal digits off lower, central and upper (each below
// 10^9) while ⌈lower/10⌉ ≤ ⌊upper/10⌋, then rounds central by the last
// digit trimmed, half to even when everything below that digit is zero
// (c0), as strconv's ryuDigits32 does. It returns central and the number of
// digits trimmed.
func ryuDigits32(lower, central, upper uint32, c0, cup bool) (uint32, int) {
	trimmed := 0
	next := uint32(0) // the last digit trimmed off central
	for upper > 0 {
		l, c, u := (lower+9)/10, central/10, upper/10
		if l > u {
			break
		}
		digit := central % 10
		// central sits just below l, a shorter value inside the
		// interval: take l.
		if l == c+1 && c < u {
			c++
			digit = 0
		}
		trimmed++
		c0 = c0 && next == 0
		next = digit
		lower, central, upper = l, c, u
	}
	if trimmed > 0 {
		cup = next > 5 || next == 5 && (!c0 || central&1 == 1)
	}
	if central < upper && cup {
		central++
	}
	return central, trimmed
}

// trimZeros moves d's trailing zeros into the exponent e.
func trimZeros(d uint32, e int) (uint32, int) {
	for d != 0 && d%10 == 0 {
		d /= 10
		e++
	}
	return d, e
}

var pow10u32 = [10]uint32{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// pow10Min is the smallest q shortest32 multiplies by: float32's largest
// e2, 103, gives q = ⌊-103·log10 2⌋ + 1 = -31; its smallest, -151, gives
// q = 46.
const pow10Min = -31

// pow10x64[q-pow10Min] is 10^q for q in [-31, 46] as a 64-bit mantissa,
// 10^q·2^(63-⌊q·log2 10⌋) in [2^63, 2^64): rounded down for q ≥ 0 (exact
// through q = 27) and up for q < 0, as strconv's float32 path rounds the
// high half of its 128-bit table. TestPow10TableMatchesBig regenerates it.
var pow10x64 = [78]uint64{
	0x81ceb32c4b43fcf5, // 1e-31
	0xa2425ff75e14fc32, // 1e-30
	0xcad2f7f5359a3b3f, // 1e-29
	0xfd87b5f28300ca0e, // 1e-28
	0x9e74d1b791e07e49, // 1e-27
	0xc612062576589ddb, // 1e-26
	0xf79687aed3eec552, // 1e-25
	0x9abe14cd44753b53, // 1e-24
	0xc16d9a0095928a28, // 1e-23
	0xf1c90080baf72cb2, // 1e-22
	0x971da05074da7bef, // 1e-21
	0xbce5086492111aeb, // 1e-20
	0xec1e4a7db69561a6, // 1e-19
	0x9392ee8e921d5d08, // 1e-18
	0xb877aa3236a4b44a, // 1e-17
	0xe69594bec44de15c, // 1e-16
	0x901d7cf73ab0acda, // 1e-15
	0xb424dc35095cd810, // 1e-14
	0xe12e13424bb40e14, // 1e-13
	0x8cbccc096f5088cc, // 1e-12
	0xafebff0bcb24aaff, // 1e-11
	0xdbe6fecebdedd5bf, // 1e-10
	0x89705f4136b4a598, // 1e-9
	0xabcc77118461cefd, // 1e-8
	0xd6bf94d5e57a42bd, // 1e-7
	0x8637bd05af6c69b6, // 1e-6
	0xa7c5ac471b478424, // 1e-5
	0xd1b71758e219652c, // 1e-4
	0x83126e978d4fdf3c, // 1e-3
	0xa3d70a3d70a3d70b, // 1e-2
	0xcccccccccccccccd, // 1e-1
	0x8000000000000000, // 1e0
	0xa000000000000000, // 1e1
	0xc800000000000000, // 1e2
	0xfa00000000000000, // 1e3
	0x9c40000000000000, // 1e4
	0xc350000000000000, // 1e5
	0xf424000000000000, // 1e6
	0x9896800000000000, // 1e7
	0xbebc200000000000, // 1e8
	0xee6b280000000000, // 1e9
	0x9502f90000000000, // 1e10
	0xba43b74000000000, // 1e11
	0xe8d4a51000000000, // 1e12
	0x9184e72a00000000, // 1e13
	0xb5e620f480000000, // 1e14
	0xe35fa931a0000000, // 1e15
	0x8e1bc9bf04000000, // 1e16
	0xb1a2bc2ec5000000, // 1e17
	0xde0b6b3a76400000, // 1e18
	0x8ac7230489e80000, // 1e19
	0xad78ebc5ac620000, // 1e20
	0xd8d726b7177a8000, // 1e21
	0x878678326eac9000, // 1e22
	0xa968163f0a57b400, // 1e23
	0xd3c21bcecceda100, // 1e24
	0x84595161401484a0, // 1e25
	0xa56fa5b99019a5c8, // 1e26
	0xcecb8f27f4200f3a, // 1e27
	0x813f3978f8940984, // 1e28
	0xa18f07d736b90be5, // 1e29
	0xc9f2c9cd04674ede, // 1e30
	0xfc6f7c4045812296, // 1e31
	0x9dc5ada82b70b59d, // 1e32
	0xc5371912364ce305, // 1e33
	0xf684df56c3e01bc6, // 1e34
	0x9a130b963a6c115c, // 1e35
	0xc097ce7bc90715b3, // 1e36
	0xf0bdc21abb48db20, // 1e37
	0x96769950b50d88f4, // 1e38
	0xbc143fa4e250eb31, // 1e39
	0xeb194f8e1ae525fd, // 1e40
	0x92efd1b8d0cf37be, // 1e41
	0xb7abc627050305ad, // 1e42
	0xe596b7b0c643c719, // 1e43
	0x8f7e32ce7bea5c6f, // 1e44
	0xb35dbf821ae4f38b, // 1e45
	0xe0352f62a19e306e, // 1e46
}
