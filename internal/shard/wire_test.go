package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"runtime"
	"testing"

	"scale/internal/fault"
)

// roundTripFrames returns one frame of each type over float32 values with
// exotic bit patterns (negative zero, a subnormal, a NaN payload, -Inf).
func roundTripFrames() ([]float32, *LoadRequest, *LayerRequest, *LayerResponse) {
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
	layer := &LayerRequest{ReqID: 7, Layer: 2, Cols: 3, HaloIDs: []int32{4, 9}, HaloRows: exotic[:6]}
	resp := &LayerResponse{Cols: 2, Rows: exotic[:4]}
	return exotic, load, layer, resp
}

// Wire frames must round-trip every float32 bit pattern exactly — including
// negative zero and NaN payloads — because the bit-identity guarantee is only
// as strong as the data plane.
func TestWireRoundTrip(t *testing.T) {
	exotic, load, layer, resp := roundTripFrames()
	got, err := DecodeLoad(load.Encode())
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

	gl, err := DecodeLayer(layer.Encode())
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

	gr, err := DecodeLayerResponse(resp.Encode())
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
	frame := (&LayerRequest{ReqID: 1, Layer: 0, Cols: 1, HaloIDs: []int32{0}, HaloRows: []float32{1}}).Encode()

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
		if _, err := DecodeLayer(raw); !errors.Is(err, fault.ErrBadGraph) {
			t.Fatalf("%s: err = %v, want ErrBadGraph", name, err)
		}
	}

	// Halo rows not matching ids × cols is a shape error on the frame.
	mism := (&LayerRequest{ReqID: 1, Cols: 2, HaloIDs: []int32{0}, HaloRows: []float32{1, 2, 3}}).Encode()
	if _, err := DecodeLayer(mism); !errors.Is(err, fault.ErrBadGraph) {
		t.Fatalf("mismatched halo rows: err = %v, want ErrBadGraph", err)
	}

	if _, err := DecodeLoad(frame[:8]); !errors.Is(err, fault.ErrBadGraph) {
		t.Fatal("truncated load frame must be ErrBadGraph")
	}
	if _, err := DecodeLayerResponse([]byte{1, 2}); !errors.Is(err, fault.ErrBadGraph) {
		t.Fatal("truncated response frame must be ErrBadGraph")
	}

	// A length prefix under maxWireElems that claims more values than the
	// frame holds must be refused before the decoder allocates for them,
	// and one byte past a frame's last field is a bad frame too.
	load := (&LoadRequest{ReqID: 1, Model: "gcn", Precision: "fp32", Dims: []int32{2, 3}, RowPtr: []int32{0}}).Encode()
	resp := (&LayerResponse{Cols: 2}).Encode()
	claim := func(frame []byte, at int) []byte {
		b := append([]byte(nil), frame[:at+4]...)
		binary.LittleEndian.PutUint32(b[at:], 1<<27-1)
		return b
	}
	rows := []struct {
		kind   string
		frame  []byte
		prefix int // offset of a length prefix: features, halo ids, rows
	}{
		{"load", load, len(load) - 4},
		{"layer", frame, 24},
		{"response", resp, 12},
	}
	for _, row := range rows {
		decode := wireDecoders[row.kind]
		if _, err := decode(row.frame); err != nil {
			t.Fatalf("%s: intact frame: %v", row.kind, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decode(claim(row.frame, row.prefix))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, fault.ErrBadGraph) {
			t.Fatalf("%s: 2^27-1 prefix: err = %v, want ErrBadGraph", row.kind, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Fatalf("%s: 2^27-1 prefix allocated %d bytes before failing", row.kind, d)
		}
		if _, err := decode(append(append([]byte(nil), row.frame...), 0)); !errors.Is(err, fault.ErrBadGraph) {
			t.Fatalf("%s: trailing byte: err = %v, want ErrBadGraph", row.kind, err)
		}
	}
}

// TestWireGoldenBytes pins SCSH v1 byte for byte: one small frame of each
// type encodes to fixed bytes, and those bytes decode back to the same
// frame, so fronts and workers of different builds keep talking to each
// other.
func TestWireGoldenBytes(t *testing.T) {
	cases := []struct {
		kind  string
		frame wireFrame
		hex   string
	}{
		{
			"load",
			&LoadRequest{
				ReqID: 0x0102030405060708, Model: "gcn", Precision: "fp32", Dims: []int32{2, 3},
				Owned: []int32{0, 1}, RowPtr: []int32{0, 0, 1}, ColIdx: []int32{0},
				Degrees: []int32{0, 1}, Features: []float32{1, float32(math.Copysign(0, -1)), 0.5, -2},
			},
			"4853435301000000" + "0807060504030201" + "03000000" + "67636e" + "04000000" + "66703332" +
				"02000000" + "0200000003000000" + "00000000" + "02000000" + "0000000001000000" +
				"03000000" + "000000000000000001000000" + "01000000" + "00000000" +
				"02000000" + "0000000001000000" + "04000000" + "0000803f" + "00000080" + "0000003f" + "000000c0",
		},
		{
			"layer",
			&LayerRequest{ReqID: 7, Layer: 1, Cols: 2, HaloIDs: []int32{1}, HaloRows: []float32{0.25, -1}},
			"4853435301000000" + "0700000000000000" + "01000000" + "02000000" +
				"01000000" + "01000000" + "02000000" + "0000803e" + "000080bf",
		},
		{
			"layer",
			&LayerRequest{ReqID: 9, Layer: 0, Cols: 4},
			"4853435301000000" + "0900000000000000" + "00000000" + "04000000" + "00000000" + "00000000",
		},
		{
			"response",
			&LayerResponse{Cols: 2, Rows: []float32{1, 2, 3, float32(math.Inf(-1))}},
			"4853435301000000" + "02000000" + "04000000" + "0000803f" + "00000040" + "00004040" + "000080ff",
		},
	}
	for _, tc := range cases {
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		if got := tc.frame.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("%s: encoded\n%x\nwant\n%x", tc.kind, got, want)
		}
		back, err := wireDecoders[tc.kind](want)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.kind, err)
		}
		if got := back.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("%s: decoded frame re-encodes to\n%x", tc.kind, got)
		}
	}
}

// wireFrame is any of the three frame types.
type wireFrame interface{ Encode() []byte }

// wireDecoders decodes each frame type behind one signature.
var wireDecoders = map[string]func([]byte) (wireFrame, error){
	"load":     func(b []byte) (wireFrame, error) { return DecodeLoad(b) },
	"layer":    func(b []byte) (wireFrame, error) { return DecodeLayer(b) },
	"response": func(b []byte) (wireFrame, error) { return DecodeLayerResponse(b) },
}

// FuzzWireFrames feeds arbitrary bytes to each decoder: every input is either
// refused with ErrBadGraph or decodes to a frame that encodes back to exactly
// the input, so the codec has one encoding per frame and no decoder panics.
// No decode may allocate more than 4·len(b) + 64 KiB.
func FuzzWireFrames(f *testing.F) {
	_, load, layer, resp := roundTripFrames()
	for _, fr := range []wireFrame{load, layer, resp} {
		f.Add(fr.Encode())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for name, decode := range wireDecoders {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fr, err := decode(b)
			runtime.ReadMemStats(&after)
			if d, budget := after.TotalAlloc-before.TotalAlloc, 4*uint64(len(b))+64<<10; d > budget {
				t.Fatalf("%s: decoding %d bytes allocated %d, budget %d", name, len(b), d, budget)
			}
			if err != nil {
				if !errors.Is(err, fault.ErrBadGraph) {
					t.Fatalf("%s: err = %v, want ErrBadGraph", name, err)
				}
				continue
			}
			if got := fr.Encode(); !bytes.Equal(got, b) {
				t.Fatalf("%s: %x decodes and re-encodes to %x", name, b, got)
			}
		}
	})
}
