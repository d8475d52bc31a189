package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// Request-body decoding (DESIGN §4h, "Body decoding"). Every JSON body is
// buffered once and must hold exactly one JSON value: anything but
// whitespace after it is a 400. /v1/infer bodies additionally get a
// hand-written fast path, because a request-carried Reddit-scale graph is
// megabytes of edge and feature numbers: parseInferBody decodes the
// canonical envelope in one pass and hands any other envelope to
// encoding/json over the same buffer. Either way the edges and features
// arrays go through the same two strict parsers below, so they have one
// grammar, and feature values come from the same strconv.ParseFloat call
// encoding/json makes — fp32 responses stay byte-identical.

// maxPresize caps how far a request's Content-Length may presize its body
// buffer. Past the cap the buffer grows only as bytes arrive, so a header
// that overstates the body cannot make the server allocate for bytes that
// are never sent.
const maxPresize = 16 << 20

// readBody buffers r's body in one pass.
func readBody(r *http.Request) ([]byte, error) {
	n := 512
	if cl := r.ContentLength; cl > 0 {
		n = int(min(cl, maxPresize)) + 1 // +1: room to read EOF without growing
	}
	buf := make([]byte, 0, n)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		m, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeJSON buffers r's body and decodes it into v. json.Unmarshal, unlike
// json.Decoder.Decode, rejects trailing data after the value, so a body
// cannot smuggle a second object past the decoder.
func decodeJSON(r *http.Request, v any) error {
	buf, err := readBody(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(buf, v)
}

// decodeInferBody buffers and decodes one POST /v1/infer body.
func decodeInferBody(r *http.Request) (inferBody, error) {
	buf, err := readBody(r)
	if err != nil {
		return inferBody{}, err
	}
	return parseInferBody(buf)
}

// parseInferBody decodes buf through the fast path when its envelope is
// canonical and through encoding/json otherwise. The fallback accepts
// exactly the envelopes encoding/json accepts — unknown and case-variant
// keys, null, escapes, non-ASCII strings, duplicate keys — except that each
// edges and features value, however often it occurs, must pass the strict
// array parsers (FuzzInferBody pins the two paths against encoding/json).
func parseInferBody(buf []byte) (inferBody, error) {
	if body, err := parseCanonical(buf); err == nil {
		return body, nil
	}
	var fb struct {
		inferBody
		// These shadow inferBody's fields of the same JSON name.
		Edges    edgesJSON    `json:"edges"`
		Features featuresJSON `json:"features"`
	}
	if err := json.Unmarshal(buf, &fb); err != nil {
		return inferBody{}, err
	}
	body := fb.inferBody
	body.Edges, body.Features = fb.Edges, fb.Features
	return body, nil
}

// edgesJSON and featuresJSON route every edges/features value the fallback
// meets to the strict array parsers.
type (
	edgesJSON    [][2]int
	featuresJSON [][]float32
)

func (e *edgesJSON) UnmarshalJSON(b []byte) error {
	v, err := wholeValue(b, parseEdges)
	*e = v
	return err
}

func (f *featuresJSON) UnmarshalJSON(b []byte) error {
	v, err := wholeValue(b, parseFeatures)
	*f = v
	return err
}

// wholeValue runs an array parser over b, which must hold nothing else.
func wholeValue[T any](b []byte, parse func([]byte, int) (T, int, error)) (T, error) {
	v, end, err := parse(b, 0)
	if err == nil && end != len(b) {
		err = fmt.Errorf("serve: %d trailing bytes after array", len(b)-end)
	}
	return v, err
}

// errFallback marks a body the fast path leaves to encoding/json; the
// fallback, not the fast path, decides whether it is valid.
var errFallback = errors.New("serve: body not canonical")

// parseCanonical is the fast path. It accepts one object whose keys are the
// ten exact lowercase inferBody keys, each at most once, with escape-free
// ASCII strings, strict JSON integers for the integer fields, the strict
// edges/features grammar, and only whitespace after the closing brace. Any
// other input returns errFallback (or the array parsers' error) and is
// re-decoded by encoding/json.
func parseCanonical(b []byte) (inferBody, error) {
	var body inferBody
	var seen uint16
	i, err := list(b, skipWS(b, 0), '{', '}', func(i int) (int, error) {
		key, i, ok := scanString(b, i)
		if !ok {
			return i, errFallback
		}
		if i = skipWS(b, i); i >= len(b) || b[i] != ':' {
			return i, errFallback
		}
		i = skipWS(b, i+1)
		var bit uint16
		var err error
		switch string(key) {
		case "model":
			bit = 1 << 0
			body.Model, i, err = stringValue(b, i)
		case "dims":
			bit = 1 << 1
			body.Dims, i, err = intsValue(b, i)
		case "num_vertices":
			bit = 1 << 2
			body.NumVertices, i, err = intValue(b, i)
		case "edges":
			bit = 1 << 3
			body.Edges, i, err = parseEdges(b, i)
		case "features":
			bit = 1 << 4
			body.Features, i, err = parseFeatures(b, i)
		case "timeout_ms":
			bit = 1 << 5
			body.TimeoutMS, i, err = intValue(b, i)
		case "precision":
			bit = 1 << 6
			body.Precision, i, err = stringValue(b, i)
		case "graph":
			bit = 1 << 7
			body.Graph, i, err = stringValue(b, i)
		case "sample_fanout":
			bit = 1 << 8
			body.SampleFanout, i, err = intValue(b, i)
		case "sample_seed":
			bit = 1 << 9
			body.SampleSeed, i, err = uint64Value(b, i)
		default:
			return i, errFallback
		}
		if err == nil && seen&bit != 0 {
			err = errFallback
		}
		seen |= bit
		return i, err
	})
	if err != nil {
		return inferBody{}, err
	}
	if skipWS(b, i) != len(b) {
		return inferBody{}, errFallback
	}
	return body, nil
}

// stringValue reads an escape-free ASCII string value.
func stringValue(b []byte, i int) (string, int, error) {
	s, end, ok := scanString(b, i)
	if !ok {
		return "", end, errFallback
	}
	return string(s), end, nil
}

// intValue reads a strict JSON integer that fits an int.
func intValue(b []byte, i int) (int, int, error) {
	v, end, ok := scanInt(b, i)
	if !ok {
		return 0, end, errFallback
	}
	return v, end, nil
}

// uint64Value reads a non-negative strict JSON integer that fits a uint64.
func uint64Value(b []byte, i int) (uint64, int, error) {
	neg, mag, end, ok := scanInteger(b, i)
	if !ok || neg {
		return 0, end, errFallback
	}
	return mag, end, nil
}

// intsValue reads an array of strict JSON integers. An empty array decodes
// to an empty, non-nil slice, as encoding/json does.
func intsValue(b []byte, i int) ([]int, int, error) {
	out := make([]int, 0, 4)
	end, err := list(b, i, '[', ']', func(i int) (int, error) {
		v, end, err := intValue(b, i)
		out = append(out, v)
		return end, err
	})
	if err != nil {
		return nil, end, errFallback
	}
	return out, end, nil
}

// parseEdges parses the edges value at b[i:]: null (no edges) or an array
// of [src, dst] pairs of strict JSON integers, exactly two per pair. The
// pairs land in one slice presized by countLists, so a well-formed array
// costs one allocation, sized by the bytes actually received.
func parseEdges(b []byte, i int) ([][2]int, int, error) {
	if isNull(b, i) {
		return nil, i + 4, nil
	}
	pairs, _ := countLists(b, i)
	edges := make([][2]int, 0, pairs)
	end, err := list(b, i, '[', ']', func(i int) (int, error) {
		src, dst, end, ok := scanPair(b, i)
		if !ok {
			return end, fmt.Errorf("serve: edges[%d]: want [src, dst], exactly two integer vertex ids", len(edges))
		}
		edges = append(edges, [2]int{src, dst})
		return end, nil
	})
	if err == errList {
		err = errors.New("serve: edges: want null or an array of [src, dst] pairs")
	}
	if err != nil {
		return nil, end, err
	}
	return edges, end, nil
}

// scanPair reads one [src, dst] pair of strict JSON integers.
func scanPair(b []byte, i int) (src, dst, end int, ok bool) {
	if i >= len(b) || b[i] != '[' {
		return 0, 0, i, false
	}
	if src, i, ok = scanInt(b, skipWS(b, i+1)); !ok {
		return 0, 0, i, false
	}
	if i = skipWS(b, i); i >= len(b) || b[i] != ',' {
		return 0, 0, i, false
	}
	if dst, i, ok = scanInt(b, skipWS(b, i+1)); !ok {
		return 0, 0, i, false
	}
	if i = skipWS(b, i); i >= len(b) || b[i] != ']' {
		return 0, 0, i, false
	}
	return src, dst, i + 1, true
}

// parseFeatures parses the features value at b[i:]: null (no rows) or an
// array of rows, each an array of strict JSON numbers; a null row or value
// is an error. Values land in one flat []float32 and each row is a
// capacity-capped sub-slice of it, so a row can never grow into its
// neighbour. Both slices are presized by countLists: a well-formed array
// costs two allocations, sized by the bytes actually received.
func parseFeatures(b []byte, i int) ([][]float32, int, error) {
	if isNull(b, i) {
		return nil, i + 4, nil
	}
	nrows, commas := countLists(b, i)
	rows := make([][]float32, 0, nrows)
	flat := make([]float32, 0, commas+1)
	value := func(i int) (int, error) {
		end := scanNumber(b, i)
		if end < 0 {
			return i, fmt.Errorf("serve: features[%d]: want an array of numbers", len(rows))
		}
		// The call encoding/json makes for a float32 field, so every value
		// is bit-identical to what it would decode.
		f, err := strconv.ParseFloat(string(b[i:end]), 32)
		if err != nil {
			return i, fmt.Errorf("serve: features[%d]: %w", len(rows), err)
		}
		flat = append(flat, float32(f))
		return end, nil
	}
	end, err := list(b, i, '[', ']', func(i int) (int, error) {
		start := len(flat)
		end, err := list(b, i, '[', ']', value)
		if err == errList {
			err = fmt.Errorf("serve: features[%d]: want an array of numbers", len(rows))
		}
		rows = append(rows, flat[start:len(flat):len(flat)])
		return end, err
	})
	if err == errList {
		err = errors.New("serve: features: want null or an array of rows")
	}
	if err != nil {
		return nil, end, err
	}
	return rows, end, nil
}

// countLists sizes the array of lists at b[i:] before it is parsed. It
// takes the array to end at the first ']' that follows another ']' across
// whitespace, where a well-formed array of flat lists ends, and counts the
// '[' and ',' bytes before that: the lists inside, and one less than the
// most values they can hold. For a well-formed value the list count is
// exact; for any other input both counts are still bounded by the bytes
// scanned.
func countLists(b []byte, i int) (lists, commas int) {
	if i >= len(b) || b[i] != '[' {
		return 0, 0
	}
	end := i + 1
	if j := skipWS(b, end); j < len(b) && b[j] == ']' {
		return 0, 0
	}
	for end < len(b) {
		k := bytes.IndexByte(b[end:], ']')
		if k < 0 {
			end = len(b)
			break
		}
		end += k + 1
		if j := skipWS(b, end); j < len(b) && b[j] == ']' {
			end = j + 1
			break
		}
	}
	span := b[i:end]
	return max(bytes.Count(span, []byte("["))-1, 0), bytes.Count(span, []byte(","))
}

// errList marks brackets or separators out of place in a list; callers
// replace it with an error naming the list.
var errList = errors.New("serve: malformed list")

// list walks open ws [elem ws ("," ws elem ws)*] close starting at b[i]: a
// JSON array, or with '{' and '}' an object whose elem parses one member.
// elem starts at a non-whitespace byte and returns the index past its
// element. list returns the index past close.
func list(b []byte, i int, open, close byte, elem func(int) (int, error)) (int, error) {
	if i >= len(b) || b[i] != open {
		return i, errList
	}
	if i = skipWS(b, i+1); i < len(b) && b[i] == close {
		return i + 1, nil
	}
	for {
		end, err := elem(i)
		if err != nil {
			return end, err
		}
		if i = skipWS(b, end); i >= len(b) {
			return i, errList
		}
		switch b[i] {
		case ',':
			i = skipWS(b, i+1)
		case close:
			return i + 1, nil
		default:
			return i, errList
		}
	}
}

// skipWS returns the index of the first non-whitespace byte at or after i,
// whitespace being JSON's four bytes.
func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

func isNull(b []byte, i int) bool {
	return len(b)-i >= 4 && string(b[i:i+4]) == "null"
}

// scanString reads a JSON string at b[i:] whose bytes are all printable
// ASCII other than a backslash, and returns its contents. Anything else —
// escapes, control bytes, non-ASCII — is not ok.
func scanString(b []byte, i int) (s []byte, end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, j, false
		}
	}
	return nil, len(b), false
}

// scanInt reads a strict JSON integer at b[i:] that fits an int.
func scanInt(b []byte, i int) (v, end int, ok bool) {
	neg, mag, end, ok := scanInteger(b, i)
	lim := uint64(math.MaxInt)
	if neg {
		lim++
	}
	if !ok || mag > lim {
		return 0, end, false
	}
	if neg {
		return -int(mag), end, true // wraps to math.MinInt when mag is lim
	}
	return int(mag), end, true
}

// scanInteger reads -?(0|[1-9][0-9]*) at b[i:] and returns its sign and
// magnitude. It is not ok when the number continues with a fraction or an
// exponent (an integer written as a float) or its magnitude overflows a
// uint64.
func scanInteger(b []byte, i int) (neg bool, mag uint64, end int, ok bool) {
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		mag = mag*10 + uint64(b[i]-'0') // cannot wrap within 19 digits
	}
	switch n := i - start; {
	case n == 0 || (b[start] == '0' && n > 1):
		return neg, 0, i, false
	case n > 19:
		var err error
		if mag, err = strconv.ParseUint(string(b[start:i]), 10, 64); err != nil {
			return neg, 0, i, false
		}
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return neg, 0, i, false
	}
	return neg, mag, i, true
}

// scanNumber returns the index past the strict JSON number at b[i:],
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or -1 if there is none.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		start := i + 1
		if i = skipDigits(b, start); i == start {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		start := i + 1
		if start < len(b) && (b[start] == '+' || b[start] == '-') {
			start++
		}
		if i = skipDigits(b, start); i == start {
			return -1
		}
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
