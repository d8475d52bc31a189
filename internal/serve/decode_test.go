package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// referenceInferBody is the contract the /v1/infer decoder is held to:
// encoding/json's Decode into inferBody, plus the decoder's two rejections —
// anything but whitespace after the object, and any edges or features value
// (wherever it occurs, however the key is cased) outside the strict array
// grammar, which encoding/json would silently rewrite. The shape checks use
// encoding/json's own generic decoding, not the decoder's parsers.
func referenceInferBody(b []byte) (inferBody, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	var body inferBody
	if err := dec.Decode(&body); err != nil {
		return inferBody{}, err
	}
	if tok, err := dec.Token(); err != io.EOF {
		return inferBody{}, fmt.Errorf("trailing data %v %v", tok, err)
	}
	var shapes struct {
		Edges    refEdges    `json:"edges"`
		Features refFeatures `json:"features"`
	}
	if err := json.Unmarshal(b, &shapes); err != nil {
		return inferBody{}, err
	}
	return body, nil
}

type (
	refEdges    struct{}
	refFeatures struct{}
)

func (refEdges) UnmarshalJSON(b []byte) error {
	rows, err := refRows(b)
	for i, row := range rows {
		if len(row) != 2 {
			return fmt.Errorf("edge %d has %d entries", i, len(row))
		}
	}
	return err
}

func (refFeatures) UnmarshalJSON(b []byte) error {
	_, err := refRows(b)
	return err
}

// refRows decodes null or an array of arrays of numbers.
func refRows(b []byte) ([][]any, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil || v == nil {
		return nil, err
	}
	outer, ok := v.([]any)
	if !ok {
		return nil, errors.New("not an array")
	}
	rows := make([][]any, len(outer))
	for i, r := range outer {
		if rows[i], ok = r.([]any); !ok {
			return nil, fmt.Errorf("row %d is not an array", i)
		}
		for _, x := range rows[i] {
			if _, ok := x.(json.Number); !ok {
				return nil, fmt.Errorf("row %d holds a non-number", i)
			}
		}
	}
	return rows, nil
}

// sameInferBody compares two decoded bodies field by field, nil slices
// apart from empty ones and feature values by their bits, so -0 and 0
// differ. The decoder's flat store is not a JSON field; flatHoldsRows
// checks it.
func sameInferBody(a, b inferBody) error {
	af, bf := a.Features, b.Features
	a.Features, b.Features = nil, nil
	a.flat, b.flat = nil, nil
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("fields differ:\n%+v\n%+v", a, b)
	}
	if (af == nil) != (bf == nil) || len(af) != len(bf) {
		return fmt.Errorf("features: %d rows (nil %v) vs %d rows (nil %v)", len(af), af == nil, len(bf), bf == nil)
	}
	for v := range af {
		if (af[v] == nil) != (bf[v] == nil) || len(af[v]) != len(bf[v]) {
			return fmt.Errorf("features[%d]: %v vs %v", v, af[v], bf[v])
		}
		for j := range af[v] {
			if math.Float32bits(af[v][j]) != math.Float32bits(bf[v][j]) {
				return fmt.Errorf("features[%d][%d]: %v vs %v", v, j, af[v][j], bf[v][j])
			}
		}
	}
	return nil
}

// flatHoldsRows checks that a decoded body's flat store is its feature rows
// end to end, each row a view of flat rather than a copy, so the matrix
// carriedGraph adopts holds exactly the rows the batched route reads.
func flatHoldsRows(body inferBody) error {
	off := 0
	for v, row := range body.Features {
		if off+len(row) > len(body.flat) {
			return fmt.Errorf("features[%d] ends past flat's %d values", v, len(body.flat))
		}
		if len(row) > 0 && &row[0] != &body.flat[off] {
			return fmt.Errorf("features[%d] is not a view of flat at %d", v, off)
		}
		off += len(row)
	}
	if off != len(body.flat) {
		return fmt.Errorf("flat holds %d values, the rows %d", len(body.flat), off)
	}
	return nil
}

// checkDecode decodes b with the decoder and the reference and fails unless
// both reject, or both accept with equal fields.
func checkDecode(t *testing.T, b []byte) {
	t.Helper()
	got, err := parseInferBody(b)
	want, refErr := referenceInferBody(b)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("decoder error %v, reference error %v, body %q", err, refErr, b)
	}
	if err != nil {
		return
	}
	if err := sameInferBody(got, want); err != nil {
		t.Fatalf("%v\nbody %q", err, b)
	}
	for v, row := range got.Features {
		if cap(row) != len(row) {
			t.Fatalf("features[%d] has cap %d > len %d: appending would overwrite the next row", v, cap(row), len(row))
		}
	}
	if err := flatHoldsRows(got); err != nil {
		t.Fatalf("%v\nbody %q", err, b)
	}
}

// canonicalMap is validInfer with every field set, as a map: json.Marshal
// sorts its keys, which is the shape perfbench and the README send.
func canonicalMap() map[string]any {
	b := validInfer()
	return map[string]any{
		"model": b.Model, "dims": b.Dims, "num_vertices": b.NumVertices,
		"edges": b.Edges, "features": [][]float32{{1, -0.5}, {0, 1e-7}, {3.25e12, -2}},
		"timeout_ms": 250, "precision": "int8", "graph": "", "sample_fanout": 2, "sample_seed": uint64(math.MaxUint64),
	}
}

// TestInferBodyFastPath pins which bodies take the fast path: json.Marshal
// output of inferBody (struct field order) and of a map (sorted keys), with
// and without json.Encoder's trailing newline, decode without falling back
// and match encoding/json.
func TestInferBodyFastPath(t *testing.T) {
	full := validInfer()
	full.TimeoutMS, full.Precision, full.Graph, full.SampleFanout, full.SampleSeed = 250, "int8", "dynamic", 2, 7
	var bodies [][]byte
	for _, v := range []any{validInfer(), full, canonicalMap()} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b, append(append([]byte(nil), b...), '\n'))
	}
	for _, b := range bodies {
		if _, err := parseCanonical(b); err != nil {
			t.Fatalf("fell back (%v) on %s", err, b)
		}
		checkDecode(t, b)
	}
}

// fuzzSeeds are FuzzInferBody's corpus: canonical bodies in both key orders,
// one body per fallback trigger, and the malformed arrays and trailing data
// the decoder must reject.
func fuzzSeeds() []string {
	structForm, _ := json.Marshal(validInfer())
	mapForm, _ := json.Marshal(canonicalMap())
	const tail = `"num_vertices":3,"edges":[[0,1],[2,1]],"features":[[1,0],[0,1],[1,1]]}`
	return []string{
		string(structForm),
		string(mapForm),
		`{"model":"gin","dims":[2,3],"extra":{"x":[1]},` + tail,           // unknown key
		`{"Model":"gin","DIMS":[2,3],` + tail,                             // case-variant keys
		`{"model":null,"dims":null,"edges":null,"features":null}`,         // null
		`{"model":"gin","dims":[2,3],` + tail,                             // escape
		`{"model":"gïn","dims":[2,3],` + tail,                             // non-ASCII
		`{"model":"gcn","model":"gin","dims":[2,3],` + tail,               // duplicate key
		`{"model":"gin","dims":[2,3],"edges":[[2]],` + tail,               // duplicate with a malformed first value
		`{"model":"gin","dims":[2,3],"num_vertices":3.0,"edges":[[0,1]]}`, // int written as a float
		`{"model":"gin","dims":[2,3],"num_vertices":3,"edges":[[2]]}`,
		`{"model":"gin","dims":[2,3],"num_vertices":3,"edges":[[0,1,7]]}`,
		`{"model":"gin","dims":[2,3],"num_vertices":3,"edges":[null]}`,
		`{"model":"gin","dims":[2,3],"num_vertices":3,"edges":[[null,1]]}`,
		`{"model":"gin","dims":[2,3],"num_vertices":3,"features":[null,[0,1]]}`,
		`{"model":"gin","dims":[2,3],"num_vertices":3,"features":[[1,null]]}`,
		`{"model":"gin","dims":[2,3],` + tail + ` {"model":"nope"} garbage`,
		`{"features":[[-0,1E+2,0.5e-3,-1.5e-45]],"sample_seed":18446744073709551615,"timeout_ms":-0}`,
		`{"features":[[1e39]],"dims":[9223372036854775808]}`, // out of range
		`{"sample_seed":-0}`,
		` { "edges" : [ [ 0 , 1 ] , [1,0] ] , "features" : [ [ ] , [ 1 ] ] } ` + "\t\r\n",
		// Number boundaries: the exact divide's sign of zero and 7-digit
		// limit, and values on either side of it that ParseFloat takes.
		`{"features":[[-0,-0.0,0.0000001,9999999,99999999,16777217,1.5e0,0.10000000]]}`,
		`{"features":[[-0],[-0.0,0.0000001],[9999999,-99999999],[16777217,-1.5e0,0.10000000]],"num_vertices":4}`,
		`{"features":[[5,6],[7]],"Features":[[8,9]]}`, // duplicate features: the last one's values
	}
}

// FuzzInferBody holds the /v1/infer decoder to referenceInferBody on every
// input: both reject, or both accept with equal fields and bit-identical
// feature values.
func FuzzInferBody(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b)
	})
}

// checkNumber fails unless scanFloat32 reads all of s and agrees with
// strconv.ParseFloat(s, 32), the call encoding/json makes: the same float32
// bits, and an error exactly when ParseFloat returns one.
func checkNumber(t *testing.T, s []byte) {
	got, end, err := scanFloat32(s, 0)
	want, wantErr := strconv.ParseFloat(string(s), 32)
	if end != len(s) || (err == nil) != (wantErr == nil) || math.Float32bits(got) != math.Float32bits(float32(want)) {
		t.Fatalf("%q: scanFloat32 = %v (%#x) end %d err %v; ParseFloat = %v (%#x) err %v",
			s, got, math.Float32bits(got), end, err, float32(want), math.Float32bits(float32(want)), wantErr)
	}
}

// eachDecimal calls fn with every decimal m/10^k for m < limit and k ≤ 6,
// written as json.Marshal writes it (no exponent, a fraction's leading
// zeros kept, so 12 at k = 5 is 0.00012), with and without a minus sign.
// With limit 10^7 that is every value scanFloat32 divides instead of
// handing to ParseFloat.
func eachDecimal(limit uint64, fn func(s []byte)) {
	buf := make([]byte, 0, 16)
	for k := 0; k <= 6; k++ {
		for m := uint64(0); m < limit; m++ {
			buf = strconv.AppendUint(append(buf[:0], '-'), m, 10)
			for len(buf)-1 <= k {
				buf = slices.Insert(buf, 1, '0')
			}
			if k > 0 {
				buf = slices.Insert(buf, len(buf)-k, '.')
			}
			fn(buf)
			fn(buf[1:])
		}
	}
}

// TestScanFloat32MatchesParseFloat holds the feature-value scan to
// strconv.ParseFloat(s, 32) on every decimal of at most 5 significant
// digits at every point position the exact divide takes, both signs; on the
// 7-digit edges of that path; and on values it hands to ParseFloat: 8 and 9
// digits, exponents, underflow and a range error.
func TestScanFloat32MatchesParseFloat(t *testing.T) {
	eachDecimal(1e5, func(s []byte) { checkNumber(t, s) })
	for _, s := range []string{
		"9999999", "-9999999", "999999.9", "0.000001", "-0.000001", "1.000000", "-0", "-0.0", "0.0",
		"99999999", "16777216", "16777217", "-16777217", "0.10000000", "0.0000001", "123456789", "1.2345678", "-1.98765432",
		"1e0", "1.5e0", "1E+2", "0.5e-3", "-2.5E+3", "1e7", "1e-7", "3.4028235e38", "-1.5e-45", "1e-50",
		"1e39", "-1e39", "3.4028236e38", "100000000000000000000000000000000000000000",
		"0.30000001192092896", "1.00000005960464477539062499", "1.000000059604644775390625",
	} {
		checkNumber(t, []byte(s))
	}
	for _, s := range []string{"", "-", "+1", ".5", "1.", "1.e5", "1e", "1e+", "-a", "x", "-.5"} {
		if _, _, err := scanFloat32([]byte(s), 0); err != errNumber {
			t.Fatalf("%q: error %v, want errNumber", s, err)
		}
	}
	// A number ends where the grammar does; the caller rejects what follows.
	for s, end := range map[string]int{"01": 1, "-00.5": 2, "1.5.5": 3, "2e3e4": 3, "7,": 1} {
		if _, got, err := scanFloat32([]byte(s), 0); err != nil || got != end {
			t.Fatalf("%q: end %d error %v, want end %d", s, got, err, end)
		}
	}
}

// TestScanFloat32Exhaustive extends the check to every m < 10^7, every value
// the exact divide takes: 140,000,000 strings, too slow for go test's
// default run, so it runs only with SCALE_EXHAUSTIVE_DECODE=1 set.
func TestScanFloat32Exhaustive(t *testing.T) {
	if os.Getenv("SCALE_EXHAUSTIVE_DECODE") != "1" {
		t.Skip("set SCALE_EXHAUSTIVE_DECODE=1 to check every value the exact divide takes")
	}
	n := 0
	eachDecimal(1e7, func(s []byte) {
		checkNumber(t, s)
		n++
	})
	t.Logf("%d strings, no mismatch", n)
}
