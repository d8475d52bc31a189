package dyn

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"scale/internal/fault"
)

// seedBatch is FuzzMutationDecode's canonical valid batch, one op of each
// kind; TestBatchGoldenBytes pins its encoding.
var seedBatch = Batch{Ops: []Mutation{
	{Op: OpAddEdge, Src: 1, Dst: 2},
	{Op: OpRemoveEdge, Src: 3, Dst: 4},
	{Op: OpAddVertex, Features: []float32{0.5, -1}},
}}

// FuzzMutationDecode drives arbitrary bytes through the batched-delta
// decoder. The invariants mirror the graph codec hardening (PR 8): the
// decoder never panics, allocates at most 4·len(data) + 64 KiB, every
// rejection is a typed fault.ErrBadGraph, and an accepted batch survives a
// byte-identical re-encode round trip (so decode accepts exactly the
// canonical wire form, nothing looser).
func FuzzMutationDecode(f *testing.F) {
	// Seed with a canonical valid batch plus the malformed shapes the unit
	// tests pin.
	valid, err := EncodeBatch(seedBatch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SCD1"))
	f.Add([]byte("SCD1\xff\xff\xff\x7f"))                                     // huge count, truncated
	f.Add([]byte("SCD1\x01\x00\x00\x00\x63"))                                 // unknown kind
	f.Add([]byte("SCD1\x01\x00\x00\x00\x01\xff\xff\xff\xff\x01\x00\x00\x00")) // negative src
	f.Add([]byte("SCD1\x01\x00\x00\x00\x03\xff\xff\xff\x01"))                 // huge feature dim

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := DecodeBatch(data)
		runtime.ReadMemStats(&after)
		if d, budget := after.TotalAlloc-before.TotalAlloc, 4*uint64(len(data))+64<<10; d > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), d, budget)
		}
		if err != nil {
			if !errors.Is(err, fault.ErrBadGraph) {
				t.Fatalf("rejection not typed ErrBadGraph: %v", err)
			}
			return
		}
		// Accepted input must be the canonical encoding of what it decoded
		// to: re-encoding reproduces the input byte for byte.
		re, err := EncodeBatch(b)
		if err != nil {
			t.Fatalf("re-encode of accepted batch failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, re)
		}
	})
}
