package graph

import "scale/internal/frame"

// Binary format (SCG1, little endian): magic, u32 name length, name, u64
// |V|, u64 |E|, then |V|+1 int32 row pointers and |E| int32 columns. Used by
// cmd/scale-datasets to export built graphs.
const (
	graphMagic  uint32 = 0x31474353 // "SCG1"
	maxName            = 1 << 20
	maxVertices        = 1 << 34
	maxEdges           = 1 << 38
)

// Encode returns g in the package's binary format.
func Encode(g *Graph) []byte {
	e := frame.NewEncoder(4 + frame.StringSize(g.name) + 16 + 4*len(g.rowPtr) + 4*len(g.colIdx))
	e.U32(graphMagic)
	e.String(g.name)
	e.U64(uint64(g.NumVertices()))
	e.U64(uint64(g.NumEdges()))
	e.Int32s(g.rowPtr)
	e.Int32s(g.colIdx)
	return e.Bytes()
}

// Decode reads one whole file written by Encode and validates the graph.
// Every failure — bad magic, implausible header, truncation, trailing
// bytes, an invalid CSR — wraps fault.ErrBadGraph so callers can classify it
// as bad input. |V| and |E| are held to their caps and their arrays to the
// bytes left before either array exists.
func Decode(b []byte) (*Graph, error) {
	d := frame.NewDecoder("graph", b)
	d.Expect("magic", graphMagic)
	name := d.String(maxName)
	v, e := d.U64(), d.U64()
	if v > maxVertices || e > maxEdges || 4*(v+1)+4*e > uint64(d.Len()) {
		d.Fail("implausible sizes |V|=%d |E|=%d for %d bytes left", int64(v), int64(e), d.Len())
	}
	rowPtr := d.Int32s(int(v) + 1)
	colIdx := d.Int32s(int(e))
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return FromCSR(name, rowPtr, colIdx)
}
