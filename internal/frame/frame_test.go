package frame

import (
	"errors"
	"math"
	"strings"
	"testing"

	"scale/internal/fault"
)

// TestRoundTrip encodes one of each field into an exactly sized frame and
// reads it back bit for bit.
func TestRoundTrip(t *testing.T) {
	ints := []int32{-1, 0, math.MaxInt32}
	floats := []float32{float32(math.Copysign(0, -1)), math.Float32frombits(0x7fc00001), 1.5e-39}
	e := NewEncoder(1 + 4 + 8 + StringSize("gcn") + 4*len(ints) + 4*len(floats))
	e.U8(7)
	e.U32(0xdeadbeef)
	e.U64(1 << 40)
	e.String("gcn")
	e.Int32s(ints)
	e.Float32s(floats)

	d := NewDecoder("test", e.Bytes())
	if d.U8() != 7 || d.U32() != 0xdeadbeef || d.U64() != 1<<40 || d.String(3) != "gcn" {
		t.Fatalf("scalar fields corrupted: %v", d.Err())
	}
	gotInts, gotFloats := d.Int32s(len(ints)), d.Float32s(len(floats))
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	for i, v := range gotInts {
		if v != ints[i] {
			t.Fatalf("int %d: %d, want %d", i, v, ints[i])
		}
	}
	for i, v := range gotFloats {
		if math.Float32bits(v) != math.Float32bits(floats[i]) {
			t.Fatalf("float %d: bits %#x, want %#x", i, math.Float32bits(v), math.Float32bits(floats[i]))
		}
	}
}

// TestDecoderRefusals pins the decoder's contract: a count past its cap or
// past the bytes left, a short read, a wrong magic and trailing bytes are
// each ErrBadGraph; the first error is the one kept, and every read after it
// returns a zero value.
func TestDecoderRefusals(t *testing.T) {
	prefixed := func(n uint32, rest ...byte) []byte {
		e := NewEncoder(4)
		e.U32(n)
		return append(e.Bytes(), rest...)
	}
	cases := map[string]struct {
		frame []byte
		read  func(d *Decoder)
		want  string
	}{
		"count past cap":        {prefixed(9, make([]byte, 64)...), func(d *Decoder) { d.Count(8, 1) }, "exceeds limit"},
		"count past bytes left": {prefixed(3, 0, 0, 0, 0, 0, 0, 0, 0), func(d *Decoder) { d.Count(8, 4) }, "bytes left"},
		"short read":            {[]byte{1, 2}, func(d *Decoder) { d.U32() }, "truncated"},
		"string past cap":       {prefixed(5, 'a', 'b', 'c', 'd', 'e'), func(d *Decoder) { d.String(4) }, "exceeds limit"},
		"bad magic":             {prefixed(1), func(d *Decoder) { d.Expect("magic", 2) }, "bad magic"},
		"trailing byte":         {prefixed(1, 0), func(d *Decoder) { d.U32() }, "trailing"},
	}
	for name, tc := range cases {
		d := NewDecoder("test", tc.frame)
		tc.read(d)
		err := d.Finish()
		if !errors.Is(err, fault.ErrBadGraph) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want ErrBadGraph mentioning %q", name, err, tc.want)
		}
	}

	d := NewDecoder("test", []byte{1})
	d.U32()
	first := d.Err()
	d.Fail("later failure")
	if d.Err() != first || d.U8() != 0 || d.Float32s(0) != nil {
		t.Fatalf("first error not kept or read after it not zero: %v", d.Err())
	}
}
