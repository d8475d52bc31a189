package shard

import (
	"fmt"

	"scale/internal/fault"
	"scale/internal/frame"
)

// The shard data plane speaks a small length-prefixed binary framing over
// HTTP bodies (Content-Type application/octet-stream) instead of JSON:
// feature matrices dominate the exchanged bytes, raw little-endian float32
// preserves every bit exactly (no text round-trip), and encoding is a
// straight memory walk. Control-plane answers (errors, health) stay JSON.
// The codec is internal/frame; this file holds only the frame types and
// their field order. Every slice is a u32 length prefix and its 4-byte
// values, every string a u32 length prefix and its bytes.
const (
	wireMagic   uint32 = 0x53435348 // "SCSH"
	wireVersion uint32 = 1
	// headerBytes is the magic and version every frame starts with.
	headerBytes = 8
	// maxWireElems caps any single decoded slice (2^27 ≈ 134M elements,
	// 512 MB of float32). The decoder also holds every length prefix to the
	// bytes actually received, so a corrupt prefix cannot OOM a worker.
	maxWireElems = 1 << 27
	// maxWireString caps a decoded model or precision name.
	maxWireString = 4096
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

// newEncoder returns an encoder over a frame of size bytes after the
// header, with the header written.
func newEncoder(size int) *frame.Encoder {
	e := frame.NewEncoder(headerBytes + size)
	e.U32(wireMagic)
	e.U32(wireVersion)
	return e
}

// newDecoder returns a decoder over b with the header checked.
func newDecoder(b []byte) *frame.Decoder {
	d := frame.NewDecoder("shard", b)
	d.Expect("magic", wireMagic)
	d.Expect("wire version", wireVersion)
	return d
}

// sliceBytes is the encoded size of an n-element slice.
func sliceBytes(n int) int { return 4 + 4*n }

func putI32s(e *frame.Encoder, vs []int32) {
	e.U32(uint32(len(vs)))
	e.Int32s(vs)
}

func putF32s(e *frame.Encoder, vs []float32) {
	e.U32(uint32(len(vs)))
	e.Float32s(vs)
}

func i32s(d *frame.Decoder) []int32   { return d.Int32s(d.Count(maxWireElems, 4)) }
func f32s(d *frame.Decoder) []float32 { return d.Float32s(d.Count(maxWireElems, 4)) }

// Encode returns the frame.
func (q *LoadRequest) Encode() []byte {
	e := newEncoder(8 + frame.StringSize(q.Model) + frame.StringSize(q.Precision) + sliceBytes(len(q.Dims)) + 4 +
		sliceBytes(len(q.Owned)) + sliceBytes(len(q.RowPtr)) + sliceBytes(len(q.ColIdx)) +
		sliceBytes(len(q.Degrees)) + sliceBytes(len(q.Features)))
	e.U64(q.ReqID)
	e.String(q.Model)
	e.String(q.Precision)
	putI32s(e, q.Dims)
	e.U32(uint32(q.Layer))
	putI32s(e, q.Owned)
	putI32s(e, q.RowPtr)
	putI32s(e, q.ColIdx)
	putI32s(e, q.Degrees)
	putF32s(e, q.Features)
	return e.Bytes()
}

// DecodeLoad reads one LoadRequest frame, returning typed input errors on
// corruption.
func DecodeLoad(b []byte) (*LoadRequest, error) {
	d := newDecoder(b)
	q := &LoadRequest{}
	q.ReqID = d.U64()
	q.Model = d.String(maxWireString)
	q.Precision = d.String(maxWireString)
	q.Dims = i32s(d)
	q.Layer = int32(d.U32())
	q.Owned = i32s(d)
	q.RowPtr = i32s(d)
	q.ColIdx = i32s(d)
	q.Degrees = i32s(d)
	q.Features = f32s(d)
	if err := d.Finish(); err != nil {
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
	e.U64(q.ReqID)
	e.U32(uint32(q.Layer))
	e.U32(uint32(q.Cols))
	putI32s(e, q.HaloIDs)
	putF32s(e, q.HaloRows)
	return e.Bytes()
}

// DecodeLayer reads one LayerRequest frame.
func DecodeLayer(b []byte) (*LayerRequest, error) {
	d := newDecoder(b)
	q := &LayerRequest{}
	q.ReqID = d.U64()
	q.Layer = int32(d.U32())
	q.Cols = int32(d.U32())
	q.HaloIDs = i32s(d)
	q.HaloRows = f32s(d)
	if err := d.Finish(); err != nil {
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
	e.U32(uint32(q.Cols))
	putF32s(e, q.Rows)
	return e.Bytes()
}

// DecodeLayerResponse reads one LayerResponse frame.
func DecodeLayerResponse(b []byte) (*LayerResponse, error) {
	d := newDecoder(b)
	q := &LayerResponse{}
	q.Cols = int32(d.U32())
	q.Rows = f32s(d)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if q.Cols > 0 && len(q.Rows)%int(q.Cols) != 0 {
		return nil, fmt.Errorf("shard: response rows not a multiple of %d cols: %w", q.Cols, fault.ErrBadGraph)
	}
	return q, nil
}
