package shard

import (
	"encoding/binary"
	"fmt"
	"math"

	"scale/internal/fault"
)

// The shard data plane speaks a small length-prefixed binary framing over
// HTTP bodies (Content-Type application/octet-stream) instead of JSON:
// feature matrices dominate the exchanged bytes, raw little-endian float32
// preserves every bit exactly (no text round-trip), and encoding is a
// straight memory walk. Control-plane answers (errors, health) stay JSON.
const (
	wireMagic   uint32 = 0x53435348 // "SCSH"
	wireVersion uint32 = 1
	// headerBytes is the magic and version every frame starts with.
	headerBytes = 8
	// maxWireElems caps any single decoded slice (2^27 ≈ 134M elements,
	// 512 MB of float32). The decoder also holds every length prefix to the
	// bytes actually received, so a corrupt prefix cannot OOM a worker.
	maxWireElems = 1 << 27
)

// ValidateDims rejects a dims chain of fewer than two entries, or one under
// which a layer's weights (dims[i]·dims[i+1]) or activations
// (numVertices·dims[i]) would exceed maxWireElems elements. The front tier
// applies it before any session or matrix exists, and Pool.Run and a worker
// to every pass and load frame, so an out-of-range dims entry is a typed
// input error, never an out-of-memory crash.
func ValidateDims[D int | int32](numVertices int, dims []D) error {
	if len(dims) < 2 {
		return fmt.Errorf("shard: dims chain has %d entries, need ≥2: %w", len(dims), fault.ErrBadConfig)
	}
	for i, d := range dims {
		limit := maxWireElems / max(int(d), 1)
		if numVertices > limit || i+1 < len(dims) && int(dims[i+1]) > limit {
			return fmt.Errorf("shard: dims[%d] = %d makes a matrix of more than %d elements: %w", i, d, maxWireElems, fault.ErrBadShape)
		}
	}
	return nil
}

// LoadRequest ships one shard's state for one inference request: the local
// CSR subgraph, index maps, global degrees, and the feature rows of the
// layer the pass (re)starts at. Layer is normally 0; after a worker
// failover the front tier reloads the shard on a replacement worker with
// Layer set to the first layer that worker still has to run.
type LoadRequest struct {
	ReqID     uint64
	Model     string
	Precision string
	Dims      []int32 // full feature-length chain of the model
	Layer     int32   // layer whose input Features carries
	Owned     []int32 // local ids owned by this shard
	RowPtr    []int32 // local CSR, len = numVertices+1
	ColIdx    []int32
	Degrees   []int32   // global in-degree per local vertex
	Features  []float32 // numVertices × Dims[Layer], row-major
}

// NumVertices returns the local vertex count implied by the CSR.
func (q *LoadRequest) NumVertices() int { return len(q.RowPtr) - 1 }

// LayerRequest advances one loaded shard by one layer. HaloIDs/HaloRows
// overwrite the halo copies with the rows their owners computed in the
// previous layer; the first layer after a load carries none.
type LayerRequest struct {
	ReqID    uint64
	Layer    int32
	Cols     int32     // width of each halo row (= dims[Layer])
	HaloIDs  []int32   // local ids to overwrite
	HaloRows []float32 // len(HaloIDs) × Cols, row-major
}

// LayerResponse returns the owned rows of one layer's output, in Owned
// order.
type LayerResponse struct {
	Cols int32
	Rows []float32 // len(Owned) × Cols, row-major
}

// encoder fills one frame buffer that its caller sized exactly, so a frame
// is encoded in one pass with one allocation.
type encoder struct {
	b   []byte
	off int
}

// newEncoder returns an encoder over a size-byte buffer with the frame
// header already written.
func newEncoder(size int) *encoder {
	e := &encoder{b: make([]byte, headerBytes+size)}
	e.u32(wireMagic)
	e.u32(wireVersion)
	return e
}

func (e *encoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.b[e.off:], v)
	e.off += 4
}

func (e *encoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.b[e.off:], v)
	e.off += 8
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.off += copy(e.b[e.off:], s)
}

func (e *encoder) i32s(vs []int32) {
	e.u32(uint32(len(vs)))
	dst := e.b[e.off : e.off+4*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
	}
	e.off += len(dst)
}

func (e *encoder) f32s(vs []float32) {
	e.u32(uint32(len(vs)))
	dst := e.b[e.off : e.off+4*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
	e.off += len(dst)
}

// strBytes and sliceBytes are the encoded sizes of a string and of an
// n-element int32 or float32 slice: a 4-byte length prefix and the payload.
func strBytes(s string) int { return 4 + len(s) }
func sliceBytes(n int) int  { return 4 + 4*n }

// decoder reads one whole frame. Every length prefix is checked against
// maxWireElems and against the bytes left in the frame before anything is
// allocated, so a corrupt or truncated frame costs at most its own size and
// degrades into a typed ErrBadGraph.
type decoder struct {
	b   []byte
	err error
}

// newDecoder returns a decoder over frame with its header checked.
func newDecoder(frame []byte) *decoder {
	d := &decoder{b: frame}
	if m := d.u32(); d.err == nil && m != wireMagic {
		d.fail("bad magic %#x", m)
	}
	if v := d.u32(); d.err == nil && v != wireVersion {
		d.fail("unsupported wire version %d", v)
	}
	return d
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("shard: "+format+": %w", append(args, fault.ErrBadGraph)...)
	}
}

// take consumes the next n bytes, or fails when fewer are left.
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b) {
		d.fail("truncated frame: %d bytes wanted, %d left", n, len(d.b))
		return nil
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}

func (d *decoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *decoder) str() string {
	n := d.u32()
	if n > 4096 {
		d.fail("string length %d exceeds limit", n)
	}
	return string(d.take(int(n)))
}

// block reads a slice's length prefix and returns its payload of 4-byte
// values: empty when the slice is, nil when the frame is bad.
func (d *decoder) block() []byte {
	n := d.u32()
	if n > maxWireElems {
		d.fail("slice length %d exceeds limit", n)
	}
	return d.take(4 * int(n))
}

func (d *decoder) i32s() []int32 {
	src := d.block()
	if len(src) == 0 {
		return nil
	}
	vs := make([]int32, len(src)/4)
	for i := range vs {
		vs[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return vs
}

func (d *decoder) f32s() []float32 {
	src := d.block()
	if len(src) == 0 {
		return nil
	}
	vs := make([]float32, len(src)/4)
	for i := range vs {
		vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return vs
}

// finish returns the first decode error, or a typed error when bytes follow
// the frame's last field.
func (d *decoder) finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes after the frame", len(d.b))
	}
	return d.err
}

// Encode returns the frame.
func (q *LoadRequest) Encode() []byte {
	e := newEncoder(8 + strBytes(q.Model) + strBytes(q.Precision) + sliceBytes(len(q.Dims)) + 4 +
		sliceBytes(len(q.Owned)) + sliceBytes(len(q.RowPtr)) + sliceBytes(len(q.ColIdx)) +
		sliceBytes(len(q.Degrees)) + sliceBytes(len(q.Features)))
	e.u64(q.ReqID)
	e.str(q.Model)
	e.str(q.Precision)
	e.i32s(q.Dims)
	e.u32(uint32(q.Layer))
	e.i32s(q.Owned)
	e.i32s(q.RowPtr)
	e.i32s(q.ColIdx)
	e.i32s(q.Degrees)
	e.f32s(q.Features)
	return e.b
}

// DecodeLoad reads one LoadRequest frame, returning typed input errors on
// corruption.
func DecodeLoad(frame []byte) (*LoadRequest, error) {
	d := newDecoder(frame)
	q := &LoadRequest{}
	q.ReqID = d.u64()
	q.Model = d.str()
	q.Precision = d.str()
	q.Dims = d.i32s()
	q.Layer = int32(d.u32())
	q.Owned = d.i32s()
	q.RowPtr = d.i32s()
	q.ColIdx = d.i32s()
	q.Degrees = d.i32s()
	q.Features = d.f32s()
	if err := d.finish(); err != nil {
		return nil, err
	}
	if len(q.RowPtr) < 1 {
		return nil, fmt.Errorf("shard: load frame missing CSR: %w", fault.ErrBadGraph)
	}
	return q, nil
}

// Encode returns the frame.
func (q *LayerRequest) Encode() []byte {
	e := newEncoder(8 + 4 + 4 + sliceBytes(len(q.HaloIDs)) + sliceBytes(len(q.HaloRows)))
	e.u64(q.ReqID)
	e.u32(uint32(q.Layer))
	e.u32(uint32(q.Cols))
	e.i32s(q.HaloIDs)
	e.f32s(q.HaloRows)
	return e.b
}

// DecodeLayer reads one LayerRequest frame.
func DecodeLayer(frame []byte) (*LayerRequest, error) {
	d := newDecoder(frame)
	q := &LayerRequest{}
	q.ReqID = d.u64()
	q.Layer = int32(d.u32())
	q.Cols = int32(d.u32())
	q.HaloIDs = d.i32s()
	q.HaloRows = d.f32s()
	if err := d.finish(); err != nil {
		return nil, err
	}
	if len(q.HaloRows) != len(q.HaloIDs)*int(q.Cols) {
		return nil, fmt.Errorf("shard: layer frame has %d halo values for %d ids × %d cols: %w",
			len(q.HaloRows), len(q.HaloIDs), q.Cols, fault.ErrBadGraph)
	}
	return q, nil
}

// Encode returns the frame.
func (q *LayerResponse) Encode() []byte {
	e := newEncoder(4 + sliceBytes(len(q.Rows)))
	e.u32(uint32(q.Cols))
	e.f32s(q.Rows)
	return e.b
}

// DecodeLayerResponse reads one LayerResponse frame.
func DecodeLayerResponse(frame []byte) (*LayerResponse, error) {
	d := newDecoder(frame)
	q := &LayerResponse{}
	q.Cols = int32(d.u32())
	q.Rows = d.f32s()
	if err := d.finish(); err != nil {
		return nil, err
	}
	if q.Cols > 0 && len(q.Rows)%int(q.Cols) != 0 {
		return nil, fmt.Errorf("shard: response rows not a multiple of %d cols: %w", q.Cols, fault.ErrBadGraph)
	}
	return q, nil
}
