package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"scale/internal/httpapi"
)

// Request-body decoding (DESIGN §4h, "Body decoding"). Every JSON body is
// buffered once and must hold exactly one JSON value: anything but
// whitespace after it is a 400. /v1/infer bodies additionally get a
// hand-written fast path, because a request-carried Reddit-scale graph is
// megabytes of edge and feature numbers: parseInferBody decodes the
// canonical envelope in one pass and hands any other envelope to
// encoding/json over the same buffer. Either way the edges and features
// arrays go through the same two strict parsers below, so they have one
// grammar.
//
// Each feature value is converted in the pass that checks its grammar. A
// value of at most 7 digits with no exponent is m/10^k with m < 2^24 and
// k ≤ 6; m and 10^k are exact float32s, so one IEEE float32 divide rounds
// the exact quotient once, to nearest even, as strconv.ParseFloat(s, 32)
// does, and negating the quotient gives the right sign, -0 included. Every
// other value goes to that same ParseFloat call (the one encoding/json makes)
// over the span already scanned. So fp32 responses stay byte-identical.
//
// The values land in one flat []float32 that inferBody keeps beside the
// rows; the whole-graph routes adopt it as the feature matrix's backing
// store instead of copying it (inferBody.carriedGraph).

// decodeJSON buffers r's body and decodes it into v. json.Unmarshal, unlike
// json.Decoder.Decode, rejects trailing data after the value, so a body
// cannot smuggle a second object past the decoder.
func decodeJSON(r *http.Request, v any) error {
	buf, err := httpapi.ReadBody(r.Body, r.ContentLength)
	if err != nil {
		return err
	}
	return json.Unmarshal(buf, v)
}

// decodeInferBody buffers and decodes one POST /v1/infer body.
func decodeInferBody(r *http.Request) (inferBody, error) {
	buf, err := httpapi.ReadBody(r.Body, r.ContentLength)
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
	body.Edges, body.Features, body.flat = fb.Edges, fb.Features.rows, fb.Features.flat
	return body, nil
}

// edgesJSON routes every edges value the fallback meets to the strict
// edges parser.
type edgesJSON [][2]int

func (e *edgesJSON) UnmarshalJSON(b []byte) error {
	v, err := wholeValue(b, parseEdges)
	*e = v
	return err
}

// featuresJSON is one decoded features value: its rows, each a
// capacity-capped sub-slice of flat, which holds every value in order.
// Every features value the fallback meets goes to the strict features
// parser; the last one decoded wins, rows and flat together.
type featuresJSON struct {
	rows [][]float32
	flat []float32
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
			var f featuresJSON
			f, i, err = parseFeatures(b, i)
			body.Features, body.flat = f.rows, f.flat
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
	i, more, ok := openList(b, i, '[', ']')
	for ok && more {
		src, dst, end, pairOK := scanPair(b, i)
		if !pairOK {
			return nil, end, fmt.Errorf("serve: edges[%d]: want [src, dst], exactly two integer vertex ids", len(edges))
		}
		edges = append(edges, [2]int{src, dst})
		i, more, ok = nextElem(b, end, ']')
	}
	if !ok {
		return nil, i, errEdges
	}
	return edges, i, nil
}

var errEdges = errors.New("serve: edges: want null or an array of [src, dst] pairs")

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
func parseFeatures(b []byte, i int) (featuresJSON, int, error) {
	if isNull(b, i) {
		return featuresJSON{}, i + 4, nil
	}
	nrows, commas := countLists(b, i)
	rows := make([][]float32, 0, nrows)
	flat := make([]float32, 0, commas+1)
	i, more, ok := openList(b, i, '[', ']')
	for ok && more {
		start := len(flat)
		j, vmore, vok := openList(b, i, '[', ']')
		for vok && vmore {
			f, end, err := scanFloat32(b, j)
			if err == errNumber {
				return featuresJSON{}, end, errRow(len(rows))
			}
			if err != nil {
				return featuresJSON{}, end, fmt.Errorf("serve: features[%d]: %w", len(rows), err)
			}
			flat = append(flat, f)
			j, vmore, vok = nextElem(b, end, ']')
		}
		if !vok {
			return featuresJSON{}, j, errRow(len(rows))
		}
		rows = append(rows, flat[start:len(flat):len(flat)])
		i, more, ok = nextElem(b, j, ']')
	}
	if !ok {
		return featuresJSON{}, i, errFeatures
	}
	return featuresJSON{rows: rows, flat: flat[:len(flat):len(flat)]}, i, nil
}

var errFeatures = errors.New("serve: features: want null or an array of rows")

func errRow(v int) error {
	return fmt.Errorf("serve: features[%d]: want an array of numbers", v)
}

// countLists sizes the array of lists at b[i:] before it is parsed, in three
// whole-span passes instead of one per list: a canonical array of flat
// lists (encoding/json's form, with no whitespace) ends at the first "]]",
// and the '[' and ',' bytes before that count the lists inside and one
// less than the most values they can hold. For a canonical body the list
// count is exact. Whitespace between two closing brackets hides the end;
// then the span runs to a later "]]" or to the end of the body, so the
// counts overshoot, but like the counts of any other input they stay
// bounded by the bytes received.
func countLists(b []byte, i int) (lists, commas int) {
	if i >= len(b) || b[i] != '[' {
		return 0, 0
	}
	if j := skipWS(b, i+1); j < len(b) && b[j] == ']' {
		return 0, 0
	}
	end := len(b)
	if k := bytes.Index(b[i:], []byte("]]")); k >= 0 {
		end = i + k + 2
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
// element. list returns the index past close. The edges and features
// parsers walk their arrays with the same two steps inline.
func list(b []byte, i int, open, close byte, elem func(int) (int, error)) (int, error) {
	i, more, ok := openList(b, i, open, close)
	for ok && more {
		end, err := elem(i)
		if err != nil {
			return end, err
		}
		i, more, ok = nextElem(b, end, close)
	}
	if !ok {
		return i, errList
	}
	return i, nil
}

// openList reads open and the whitespace after it at b[i:]. It returns the
// index of the first element (more), or the index past close when the list
// is empty. ok is false when b[i] is not open.
func openList(b []byte, i int, open, close byte) (next int, more, ok bool) {
	if i >= len(b) || b[i] != open {
		return i, false, false
	}
	if i = skipWS(b, i+1); i < len(b) && b[i] == close {
		return i + 1, false, true
	}
	return i, true, true
}

// nextElem reads what follows a list element at b[i:]: whitespace, then
// either ',' and more whitespace (more; next is the next element) or close
// (next is past it). ok is false for anything else.
func nextElem(b []byte, i int, close byte) (next int, more, ok bool) {
	if i = skipWS(b, i); i < len(b) && b[i] == ',' {
		return skipWS(b, i+1), true, true
	}
	return i + 1, false, i < len(b) && b[i] == close
}

// skipWS returns the index of the first non-whitespace byte at or after i,
// whitespace being JSON's four bytes.
func skipWS(b []byte, i int) int {
	for i < len(b) && isWS[b[i]] {
		i++
	}
	return i
}

var isWS = [256]bool{' ': true, '\n': true, '\r': true, '\t': true}

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
	if neg {
		return -int(mag), end, ok && mag <= uint64(math.MaxInt)+1 // wraps to math.MinInt at the limit
	}
	return int(mag), end, ok && mag <= math.MaxInt
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

// errNumber marks a feature value that is not a strict JSON number.
var errNumber = errors.New("serve: not a number")

// pow10 holds 10^k for the k ≤ 6 fraction digits a short value can have;
// each is an exact float32.
var pow10 = [...]float32{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6}

// scanFloat32 reads the strict JSON number at b[i:],
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it rounded to
// a float32 exactly as strconv.ParseFloat(s, 32) rounds it, with the index
// past it. Without an exponent and in at most 7 digits, integer and fraction
// together, it is m/10^k with m ≤ 9,999,999 < 2^24 and k ≤ 6: one exact
// float32 divide. Any other value is parsed by ParseFloat over the span just
// scanned, and its range error returned. The error is errNumber when b[i:]
// does not start with a number.
func scanFloat32(b []byte, i int) (float32, int, error) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	first := i
	var m int // wraps harmlessly past 7 digits, where it goes unused
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			m = m*10 + int(b[i]-'0')
		}
	default:
		return 0, i, errNumber
	}
	digits, frac := i-first, 0
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			m = m*10 + int(b[i]-'0')
		}
		if frac = i - j; frac == 0 {
			return 0, i, errNumber
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := i
		if i = skipDigits(b, i); i == j {
			return 0, i, errNumber
		}
	} else if digits+frac <= 7 {
		f := float32(m) / pow10[frac]
		if neg {
			f = -f
		}
		return f, i, nil
	}
	// The call encoding/json makes for a float32 field.
	f, err := strconv.ParseFloat(string(b[start:i]), 32)
	return float32(f), i, err
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
