// Package frame is the whole-frame binary codec under the repository's three
// little-endian formats: SCSH shard frames (internal/shard), SCD1 mutation
// batches (internal/dyn) and SCG1 graph files (internal/graph).
//
// An Encoder fills one []byte its caller sized exactly, so a frame is
// encoded in one pass with one allocation. A Decoder reads one []byte and
// keeps the first error it hits, wrapped in fault.ErrBadGraph; every read
// after it returns a zero value, so a format decodes field by field and
// checks the error once. Every count is held to its format's cap and to the
// bytes left before anything is allocated for it, so a corrupt or hostile
// length costs at most the bytes that carried it.
package frame

import (
	"encoding/binary"
	"fmt"
	"math"

	"scale/internal/fault"
)

// Encoder fills one exactly sized frame buffer.
type Encoder struct {
	b   []byte
	off int
}

// NewEncoder returns an encoder over a size-byte frame.
func NewEncoder(size int) *Encoder { return &Encoder{b: make([]byte, size)} }

// Bytes returns the frame.
func (e *Encoder) Bytes() []byte { return e.b }

// U8 writes one byte.
func (e *Encoder) U8(v uint8) {
	e.b[e.off] = v
	e.off++
}

// U32 writes a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	binary.LittleEndian.PutUint32(e.b[e.off:], v)
	e.off += 4
}

// U64 writes a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	binary.LittleEndian.PutUint64(e.b[e.off:], v)
	e.off += 8
}

// String writes s behind a u32 length prefix: StringSize(s) bytes.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.off += copy(e.b[e.off:], s)
}

// Int32s writes vs without a length prefix: 4·len(vs) bytes.
func (e *Encoder) Int32s(vs []int32) {
	dst := e.b[e.off : e.off+4*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
	}
	e.off += len(dst)
}

// Float32s writes the bits of vs without a length prefix: 4·len(vs) bytes.
func (e *Encoder) Float32s(vs []float32) {
	dst := e.b[e.off : e.off+4*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
	e.off += len(dst)
}

// StringSize is the encoded size of s.
func StringSize(s string) int { return 4 + len(s) }

// Decoder reads one whole frame.
type Decoder struct {
	name string
	b    []byte
	err  error
}

// NewDecoder returns a decoder over b whose errors name the format's owner
// (for example "dyn").
func NewDecoder(name string, b []byte) *Decoder { return &Decoder{name: name, b: b} }

// Fail records a decode error wrapping fault.ErrBadGraph, unless an earlier
// one is held.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(d.name+": "+format+": %w", append(args, fault.ErrBadGraph)...)
	}
}

// Err returns the first decode error.
func (d *Decoder) Err() error { return d.err }

// Len returns the bytes left.
func (d *Decoder) Len() int { return len(d.b) }

// take consumes n items of size bytes each, or fails when fewer are left.
func (d *Decoder) take(n, size int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)/size {
		d.Fail("truncated frame: %d×%d bytes wanted, %d left", n, size, len(d.b))
		return nil
	}
	b := d.b[:n*size]
	d.b = d.b[n*size:]
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if b := d.take(1, 1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if b := d.take(1, 4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if b := d.take(1, 8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Expect reads a uint32 and fails unless it is want: a magic or a version.
func (d *Decoder) Expect(what string, want uint32) {
	if v := d.U32(); d.err == nil && v != want {
		d.Fail("bad %s %#x", what, v)
	}
}

// Count reads a u32 count of items of at least size bytes each. It fails,
// and returns 0, unless the count is at most limit and the bytes left could
// hold that many items.
func (d *Decoder) Count(limit, size int) int {
	n := d.U32()
	switch {
	case d.err != nil:
		return 0
	case uint64(n) > uint64(limit):
		d.Fail("count %d exceeds limit %d", n, limit)
		return 0
	case int(n) > len(d.b)/size:
		d.Fail("count %d of %d-byte items, %d bytes left", n, size, len(d.b))
		return 0
	}
	return int(n)
}

// String reads a string behind a u32 length prefix of at most limit.
func (d *Decoder) String(limit int) string {
	return string(d.take(d.Count(limit, 1), 1))
}

// Int32s reads n little-endian int32s: nil when n is 0 or the frame is bad.
func (d *Decoder) Int32s(n int) []int32 {
	src := d.take(n, 4)
	if len(src) == 0 {
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return vs
}

// Float32s reads n float32s from their bits: nil when n is 0 or the frame is
// bad.
func (d *Decoder) Float32s(n int) []float32 {
	src := d.take(n, 4)
	if len(src) == 0 {
		return nil
	}
	vs := make([]float32, n)
	for i := range vs {
		vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return vs
}

// Finish returns the first decode error, or a typed error when bytes follow
// the frame's last field.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.Fail("%d trailing bytes after the frame", len(d.b))
	}
	return d.err
}
