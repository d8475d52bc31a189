package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
)

// memWriter is the in-memory http.ResponseWriter requests are served into:
// every request goes through serve.Server.Handler() without a client socket.
type memWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(p)
}

// post sends one POST through h and returns the status and response body.
func post(ctx context.Context, h http.Handler, path, contentType string, body []byte) (int, []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	req.Header.Set("Content-Type", contentType)
	var w memWriter
	h.ServeHTTP(&w, req)
	return w.code, w.body.Bytes()
}

// inferResponse mirrors the /v1/infer success payload. Encoding a reference
// through it with json.Encoder reproduces the server's bytes exactly, which
// is what the byte-identity checks compare.
type inferResponse struct {
	Model      string      `json:"model"`
	Precision  string      `json:"precision"`
	Embeddings [][]float32 `json:"embeddings"`
}

func encodeInfer(model, precision string, rows [][]float32) []byte {
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(inferResponse{Model: model, Precision: precision, Embeddings: rows}) // bytes.Buffer writes cannot fail
	return b.Bytes()
}

func hashOf(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash writes cannot fail
	return h.Sum64()
}

// int8Bound is the README's end-to-end accuracy contract for the int8 tier
// through serving: every output within 8 % of the largest |fp32| output.
const int8Bound = 0.08

// checkInt8 parses an int8 /v1/infer body and compares it with the fp32
// reference embeddings.
func checkInt8(body []byte, ref [][]float32) error {
	var resp inferResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("int8 response: %v", err)
	}
	if resp.Precision != "int8" {
		return fmt.Errorf("int8 response ran at %q", resp.Precision)
	}
	if len(resp.Embeddings) != len(ref) {
		return fmt.Errorf("int8 response has %d rows, want %d", len(resp.Embeddings), len(ref))
	}
	var maxRef, maxErr float64
	for v, row := range ref {
		if len(resp.Embeddings[v]) != len(row) {
			return fmt.Errorf("int8 row %d has %d values, want %d", v, len(resp.Embeddings[v]), len(row))
		}
		for i, want := range row {
			maxRef = math.Max(maxRef, math.Abs(float64(want)))
			maxErr = math.Max(maxErr, math.Abs(float64(resp.Embeddings[v][i]-want)))
		}
	}
	if maxErr > int8Bound*maxRef {
		return fmt.Errorf("int8 error %.4g exceeds %.0f%% of max |fp32| %.4g", maxErr, 100*int8Bound, maxRef)
	}
	return nil
}
