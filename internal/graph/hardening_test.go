package graph

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"scale/internal/fault"
)

// TestParseEdgeListRejections pins the typed-error contract of the edge-list
// loader: every malformed input class is rejected with fault.ErrBadGraph.
func TestParseEdgeListRejections(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"negative source", "-1 0\n"},
		{"negative destination", "0 -3\n"},
		{"missing field", "7\n"},
		{"non-numeric source", "a 0\n"},
		{"non-numeric destination", "0 b\n"},
		{"huge vertex id", fmt.Sprintf("%d 0\n", MaxVertexID+1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseEdgeList(strings.NewReader(tc.input), "bad", false)
			if err == nil {
				t.Fatal("accepted malformed input")
			}
			if !errors.Is(err, fault.ErrBadGraph) {
				t.Fatalf("err = %v, want wrapped fault.ErrBadGraph", err)
			}
		})
	}
}

// TestParseEdgeListAcceptsValid pins the accept side: comments, blank
// lines, and gap vertex ids (isolated vertices) all load.
func TestParseEdgeListAcceptsValid(t *testing.T) {
	g, err := ParseEdgeList(strings.NewReader("# c\n\n% c\n0 1\n5 1\n"), "ok", false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 6 || g.NumEdges() != 2 {
		t.Fatalf("|V|=%d |E|=%d, want 6 and 2", g.NumVertices(), g.NumEdges())
	}
}

// TestDecodeTruncatedStreams pins that a binary graph stream cut at any
// byte boundary is rejected as typed bad input, never a panic or a bogus
// accept.
func TestDecodeTruncatedStreams(t *testing.T) {
	full := Encode(Path(9))
	for cut := 0; cut < len(full); cut++ {
		if _, err := Decode(full[:cut]); !errors.Is(err, fault.ErrBadGraph) {
			t.Fatalf("cut at %d/%d: err = %v, want wrapped fault.ErrBadGraph", cut, len(full), err)
		}
	}
	if _, err := Decode(full); err != nil {
		t.Fatalf("full stream must decode: %v", err)
	}
}

// TestDecodeCorruptAdjacency pins that structurally invalid decoded content
// (an out-of-range neighbor) fails Validate with the typed sentinel.
func TestDecodeCorruptAdjacency(t *testing.T) {
	data := Encode(Path(4))
	// The colIdx section is the tail; overwrite its last int32 with 0xFF
	// bytes to produce a neighbor far outside the vertex range.
	for i := len(data) - 4; i < len(data); i++ {
		data[i] = 0xFF
	}
	if _, err := Decode(data); !errors.Is(err, fault.ErrBadGraph) {
		t.Fatalf("corrupt adjacency: err = %v, want wrapped fault.ErrBadGraph", err)
	}
}

// TestCodecGoldenBytes pins SCG1 byte for byte: Path(5) encodes to the
// bytes the streaming encoder wrote, and those bytes decode to a graph that
// encodes back to them.
func TestCodecGoldenBytes(t *testing.T) {
	want, err := hex.DecodeString("53434731" + "06000000" + "706174682d35" +
		"0500000000000000" + "0400000000000000" +
		"00000000" + "00000000" + "01000000" + "02000000" + "03000000" + "04000000" +
		"00000000" + "01000000" + "02000000" + "03000000")
	if err != nil {
		t.Fatal(err)
	}
	if got := Encode(Path(5)); !bytes.Equal(got, want) {
		t.Fatalf("encoded\n%x\nwant\n%x", got, want)
	}
	g, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := Encode(g); !bytes.Equal(got, want) {
		t.Fatalf("decoded graph re-encodes to\n%x", got)
	}
}

// TestDecodeRefusesBeforeAllocating pins the allocation bound and the end
// of a file: a 24-byte header claiming |V| = 2^34 is refused before the row
// pointers exist, and one byte after a whole file is a bad file.
func TestDecodeRefusesBeforeAllocating(t *testing.T) {
	header := []byte("SCG1" + "\x00\x00\x00\x00" +
		"\x00\x00\x00\x00\x04\x00\x00\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(header)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, fault.ErrBadGraph) {
		t.Fatalf("2^34-vertex header: err = %v, want ErrBadGraph", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Fatalf("2^34-vertex header allocated %d bytes before failing", d)
	}
	if _, err := Decode(append(Encode(Path(5)), 0)); !errors.Is(err, fault.ErrBadGraph) {
		t.Fatalf("trailing byte: err = %v, want ErrBadGraph", err)
	}
}

// TestParseFeaturesRejections pins the feature loader's typed-error
// contract: NaN, Inf, ragged rows, non-numeric values, and empty matrices.
func TestParseFeaturesRejections(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"NaN", "0 nan\n"},
		{"positive Inf", "inf 0\n"},
		{"negative Inf", "0 -Inf\n"},
		{"ragged", "1 2\n3\n"},
		{"non-numeric", "1 x\n"},
		{"empty", ""},
		{"comments only", "# nothing\n"},
		{"float32 overflow", "1e40\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseFeatures(strings.NewReader(tc.input))
			if err == nil {
				t.Fatal("accepted malformed input")
			}
			if !errors.Is(err, fault.ErrBadGraph) {
				t.Fatalf("err = %v, want wrapped fault.ErrBadGraph", err)
			}
		})
	}
}

// TestParseFeaturesAcceptsValid pins the accept side, including comments
// and scientific notation.
func TestParseFeaturesAcceptsValid(t *testing.T) {
	rows, err := ParseFeatures(strings.NewReader("# two vertices\n1.5 -2e-3\n0 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(rows[0]) != 2 {
		t.Fatalf("got %dx%d", len(rows), len(rows[0]))
	}
	if rows[0][0] != 1.5 || rows[1][1] != 4 {
		t.Fatalf("values misparsed: %v", rows)
	}
}

// TestByNameUnknownIsTypedConfigError pins the registry's error class.
func TestByNameUnknownIsTypedConfigError(t *testing.T) {
	if _, err := ByName("not-a-dataset"); !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("err = %v, want wrapped fault.ErrBadConfig", err)
	}
}
