package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
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
// differ.
func sameInferBody(a, b inferBody) error {
	af, bf := a.Features, b.Features
	a.Features, b.Features = nil, nil
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

// TestReadBodyPresize pins the buffering contract: Content-Length presizes
// the buffer only up to maxPresize, and the whole body is read whether the
// header understates or overstates it.
func TestReadBodyPresize(t *testing.T) {
	body := strings.Repeat("x", 3000)
	for _, cl := range []int64{-1, 0, 10, 3000, 1 << 40} {
		r := &http.Request{Body: io.NopCloser(strings.NewReader(body)), ContentLength: cl}
		buf, err := readBody(r)
		if err != nil || string(buf) != body {
			t.Fatalf("Content-Length %d: read %d bytes, err %v", cl, len(buf), err)
		}
		if cap(buf) > maxPresize+1 {
			t.Fatalf("Content-Length %d presized the buffer to %d bytes", cl, cap(buf))
		}
	}
}
