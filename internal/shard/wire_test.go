package shard

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"scale/internal/fault"
)

// Wire frames must round-trip every float32 bit pattern exactly — including
// negative zero and NaN payloads — because the bit-identity guarantee is only
// as strong as the data plane.
func TestWireRoundTrip(t *testing.T) {
	exotic := []float32{
		0, float32(math.Copysign(0, -1)), 1.5e-39, // subnormal
		math.Float32frombits(0x7fc00001), // NaN with payload
		math.Float32frombits(0xff800000), // -Inf
		3.14159265, -2.5e38,
	}
	load := &LoadRequest{
		ReqID: 0xdeadbeefcafe, Model: "gcn", Precision: "fp32",
		Dims: []int32{8, 4, 2}, Layer: 1,
		Owned: []int32{0, 2}, RowPtr: []int32{0, 1, 1, 3}, ColIdx: []int32{1, 0, 1},
		Degrees: []int32{5, 9, 2}, Features: exotic,
	}
	var buf bytes.Buffer
	if err := load.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLoad(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ReqID != load.ReqID || got.Model != "gcn" || got.Precision != "fp32" || got.Layer != 1 {
		t.Fatalf("header fields corrupted: %+v", got)
	}
	if got.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3", got.NumVertices())
	}
	for i, v := range got.Features {
		if math.Float32bits(v) != math.Float32bits(exotic[i]) {
			t.Fatalf("feature %d: bits %#x, want %#x", i, math.Float32bits(v), math.Float32bits(exotic[i]))
		}
	}
	for i, v := range got.Degrees {
		if v != load.Degrees[i] {
			t.Fatalf("degree %d: %d, want %d", i, v, load.Degrees[i])
		}
	}

	layer := &LayerRequest{ReqID: 7, Layer: 2, Cols: 3, HaloIDs: []int32{4, 9}, HaloRows: exotic[:6]}
	buf.Reset()
	if err := layer.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	gl, err := DecodeLayer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gl.Layer != 2 || gl.Cols != 3 || len(gl.HaloIDs) != 2 {
		t.Fatalf("layer frame corrupted: %+v", gl)
	}
	for i, v := range gl.HaloRows {
		if math.Float32bits(v) != math.Float32bits(exotic[i]) {
			t.Fatalf("halo row value %d differs", i)
		}
	}

	resp := &LayerResponse{Cols: 2, Rows: exotic[:4]}
	buf.Reset()
	if err := resp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	gr, err := DecodeLayerResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Cols != 2 || len(gr.Rows) != 4 {
		t.Fatalf("response frame corrupted: %+v", gr)
	}
}

// Corrupt frames must degrade into typed input errors, never panics or
// unbounded allocations.
func TestWireCorruption(t *testing.T) {
	var good bytes.Buffer
	if err := (&LayerRequest{ReqID: 1, Layer: 0, Cols: 1, HaloIDs: []int32{0}, HaloRows: []float32{1}}).Encode(&good); err != nil {
		t.Fatal(err)
	}
	frame := good.Bytes()

	cases := map[string][]byte{
		"bad magic":   append([]byte{0, 0, 0, 0}, frame[4:]...),
		"bad version": append(append([]byte{}, frame[:4]...), append([]byte{99, 0, 0, 0}, frame[8:]...)...),
		"truncated":   frame[:len(frame)-3],
		"empty":       {},
		// frame[:24] ends right before the HaloIDs length prefix; 0x7fffffff
		// exceeds maxWireElems and must be rejected before allocating.
		"giant length": append(append([]byte{}, frame[:24]...), 0xff, 0xff, 0xff, 0x7f),
	}
	for name, raw := range cases {
		if _, err := DecodeLayer(bytes.NewReader(raw)); !errors.Is(err, fault.ErrBadGraph) {
			t.Fatalf("%s: err = %v, want ErrBadGraph", name, err)
		}
	}

	// Halo rows not matching ids × cols is a shape error on the frame.
	var mism bytes.Buffer
	if err := (&LayerRequest{ReqID: 1, Cols: 2, HaloIDs: []int32{0}, HaloRows: []float32{1, 2, 3}}).Encode(&mism); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeLayer(&mism); !errors.Is(err, fault.ErrBadGraph) {
		t.Fatalf("mismatched halo rows: err = %v, want ErrBadGraph", err)
	}

	if _, err := DecodeLoad(bytes.NewReader(frame[:8])); !errors.Is(err, fault.ErrBadGraph) {
		t.Fatal("truncated load frame must be ErrBadGraph")
	}
	if _, err := DecodeLayerResponse(bytes.NewReader([]byte{1, 2})); !errors.Is(err, fault.ErrBadGraph) {
		t.Fatal("truncated response frame must be ErrBadGraph")
	}
}
