package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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
	// maxWireElems caps any single decoded slice (2^27 ≈ 134M elements,
	// ≥ 512 MB of float32) so a corrupt length prefix cannot OOM a worker.
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

// wireWriter accumulates encode errors so happy-path code stays linear.
type wireWriter struct {
	w   *bufio.Writer
	err error
	buf [8]byte
}

func newWireWriter(w io.Writer) *wireWriter { return &wireWriter{w: bufio.NewWriter(w)} }

func (w *wireWriter) u32(v uint32) {
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	_, w.err = w.w.Write(w.buf[:4])
}

func (w *wireWriter) u64(v uint64) {
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	_, w.err = w.w.Write(w.buf[:8])
}

func (w *wireWriter) str(s string) {
	w.u32(uint32(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.WriteString(s)
}

func (w *wireWriter) i32s(vs []int32) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.u32(uint32(v))
	}
}

func (w *wireWriter) f32s(vs []float32) {
	w.u32(uint32(len(vs)))
	if w.err != nil {
		return
	}
	for _, v := range vs {
		binary.LittleEndian.PutUint32(w.buf[:4], math.Float32bits(v))
		if _, err := w.w.Write(w.buf[:4]); err != nil {
			w.err = err
			return
		}
	}
}

func (w *wireWriter) flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// wireReader mirrors wireWriter; every length prefix is bounds-checked so a
// corrupt frame degrades into a typed ErrBadGraph instead of an allocation
// blowup.
type wireReader struct {
	r   *bufio.Reader
	err error
	buf [8]byte
}

func newWireReader(r io.Reader) *wireReader { return &wireReader{r: bufio.NewReader(r)} }

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("shard: "+format+": %w", append(args, fault.ErrBadGraph)...)
	}
}

func (r *wireReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if _, err := io.ReadFull(r.r, r.buf[:4]); err != nil {
		r.err = fmt.Errorf("shard: truncated frame: %w", fault.ErrBadGraph)
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

func (r *wireReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if _, err := io.ReadFull(r.r, r.buf[:8]); err != nil {
		r.err = fmt.Errorf("shard: truncated frame: %w", fault.ErrBadGraph)
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}

func (r *wireReader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > 4096 {
		r.fail("string length %d exceeds limit", n)
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.fail("truncated string")
		return ""
	}
	return string(b)
}

func (r *wireReader) count() int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if n > maxWireElems {
		r.fail("slice length %d exceeds limit", n)
		return 0
	}
	return int(n)
}

func (r *wireReader) i32s() []int32 {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(r.u32())
		if r.err != nil {
			return nil
		}
	}
	return vs
}

func (r *wireReader) f32s() []float32 {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]float32, n)
	for i := range vs {
		if _, err := io.ReadFull(r.r, r.buf[:4]); err != nil {
			r.fail("truncated float block")
			return nil
		}
		vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(r.buf[:4]))
	}
	return vs
}

func (r *wireReader) header() {
	if m := r.u32(); r.err == nil && m != wireMagic {
		r.fail("bad magic %#x", m)
	}
	if v := r.u32(); r.err == nil && v != wireVersion {
		r.fail("unsupported wire version %d", v)
	}
}

// Encode writes the frame.
func (q *LoadRequest) Encode(w io.Writer) error {
	ww := newWireWriter(w)
	ww.u32(wireMagic)
	ww.u32(wireVersion)
	ww.u64(q.ReqID)
	ww.str(q.Model)
	ww.str(q.Precision)
	ww.i32s(q.Dims)
	ww.u32(uint32(q.Layer))
	ww.i32s(q.Owned)
	ww.i32s(q.RowPtr)
	ww.i32s(q.ColIdx)
	ww.i32s(q.Degrees)
	ww.f32s(q.Features)
	return ww.flush()
}

// DecodeLoad reads one LoadRequest frame, returning typed input errors on
// corruption.
func DecodeLoad(rd io.Reader) (*LoadRequest, error) {
	r := newWireReader(rd)
	r.header()
	q := &LoadRequest{}
	q.ReqID = r.u64()
	q.Model = r.str()
	q.Precision = r.str()
	q.Dims = r.i32s()
	q.Layer = int32(r.u32())
	q.Owned = r.i32s()
	q.RowPtr = r.i32s()
	q.ColIdx = r.i32s()
	q.Degrees = r.i32s()
	q.Features = r.f32s()
	if r.err != nil {
		return nil, r.err
	}
	if len(q.RowPtr) < 1 {
		return nil, fmt.Errorf("shard: load frame missing CSR: %w", fault.ErrBadGraph)
	}
	return q, nil
}

// Encode writes the frame.
func (q *LayerRequest) Encode(w io.Writer) error {
	ww := newWireWriter(w)
	ww.u32(wireMagic)
	ww.u32(wireVersion)
	ww.u64(q.ReqID)
	ww.u32(uint32(q.Layer))
	ww.u32(uint32(q.Cols))
	ww.i32s(q.HaloIDs)
	ww.f32s(q.HaloRows)
	return ww.flush()
}

// DecodeLayer reads one LayerRequest frame.
func DecodeLayer(rd io.Reader) (*LayerRequest, error) {
	r := newWireReader(rd)
	r.header()
	q := &LayerRequest{}
	q.ReqID = r.u64()
	q.Layer = int32(r.u32())
	q.Cols = int32(r.u32())
	q.HaloIDs = r.i32s()
	q.HaloRows = r.f32s()
	if r.err != nil {
		return nil, r.err
	}
	if len(q.HaloRows) != len(q.HaloIDs)*int(q.Cols) {
		return nil, fmt.Errorf("shard: layer frame has %d halo values for %d ids × %d cols: %w",
			len(q.HaloRows), len(q.HaloIDs), q.Cols, fault.ErrBadGraph)
	}
	return q, nil
}

// Encode writes the frame.
func (q *LayerResponse) Encode(w io.Writer) error {
	ww := newWireWriter(w)
	ww.u32(wireMagic)
	ww.u32(wireVersion)
	ww.u32(uint32(q.Cols))
	ww.f32s(q.Rows)
	return ww.flush()
}

// DecodeLayerResponse reads one LayerResponse frame.
func DecodeLayerResponse(rd io.Reader) (*LayerResponse, error) {
	r := newWireReader(rd)
	r.header()
	q := &LayerResponse{}
	q.Cols = int32(r.u32())
	q.Rows = r.f32s()
	if r.err != nil {
		return nil, r.err
	}
	if q.Cols > 0 && len(q.Rows)%int(q.Cols) != 0 {
		return nil, fmt.Errorf("shard: response rows not a multiple of %d cols: %w", q.Cols, fault.ErrBadGraph)
	}
	return q, nil
}
