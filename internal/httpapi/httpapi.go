// Package httpapi is the HTTP edge that the serving front (internal/serve)
// and the shard worker (internal/shard) share: one mapping from an error to
// a status, a kind and a Retry-After hint (Classify, WriteError,
// RetryAfter), one admission gate (Gate), one session cache (Sessions), one
// body reader (ReadBody) and one Prometheus text writer (Counter, Gauge,
// Header). Both tiers answer every non-2xx API call through WriteError, so
// one client-side classifier serves both.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scale/internal/fault"
)

// Refusals of the edge itself. Tiers wrap them with their own context.
var (
	// ErrDraining marks work refused because the server is shutting down
	// (503 + Retry-After).
	ErrDraining = errors.New("draining")
	// ErrOverCapacity marks work refused because an admission bound is
	// full: the front's queue, the worker's run table (429 + Retry-After).
	ErrOverCapacity = errors.New("over capacity")
	// ErrNoRun marks a shard-layer call for a run the worker does not hold
	// (404). The front tier reloads the shard instead of failing over.
	ErrNoRun = errors.New("run not loaded")

	// errNotPost answers a non-POST call to an API endpoint (405).
	errNotPost = errors.New("POST required")
)

// Error is the JSON payload of every non-2xx API answer. Kind is a stable
// machine-readable classification: usage, bad_input, timeout, draining,
// over_capacity, no_run, panic or internal.
type Error struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// Classify maps err to its HTTP status and error kind, in precedence order:
// a contained panic is 500 even when its value wraps an input sentinel, then
// a spent deadline or cancel is 408, a drain 503, a full admission bound
// 429, a non-POST call 405, an unknown shard run 404, an input sentinel 400,
// and anything else 500.
func Classify(err error) (int, string) {
	if err == nil {
		return http.StatusOK, ""
	}
	if _, ok := fault.AsPanic(err); ok {
		return http.StatusInternalServerError, "panic"
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout, "timeout"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrOverCapacity):
		return http.StatusTooManyRequests, "over_capacity"
	case errors.Is(err, errNotPost):
		return http.StatusMethodNotAllowed, "usage"
	case errors.Is(err, ErrNoRun):
		return http.StatusNotFound, "no_run"
	case fault.IsInput(err):
		return http.StatusBadRequest, "bad_input"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// RetryAfter is the one retry wait both tiers use: WriteError sends it, in
// whole seconds, as the Retry-After of every 429 and 503, and the shard pool
// waits it between in-place retries of a worker's 429.
const RetryAfter = time.Second

// WriteError answers a non-nil err through Classify. The retryable answers
// (429 and 503) carry Retry-After: RetryAfter.
func WriteError(w http.ResponseWriter, err error) {
	code, kind := Classify(err)
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", strconv.Itoa(int(RetryAfter/time.Second)))
	}
	WriteJSON(w, code, Error{Error: err.Error(), Kind: kind})
}

// WriteJSON answers code with v as the JSON body. v is encoded before
// anything is written, so a value encoding/json refuses, such as a NaN,
// answers 500 internal through WriteError instead of code with a cut body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		WriteError(w, fmt.Errorf("httpapi: encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes()) // the client is gone if this fails; nothing to do
}

// maxPresize caps how far a Content-Length may presize a body buffer. Past
// the cap the buffer grows only as bytes arrive, so a header that overstates
// the body cannot make a server allocate for bytes that are never sent.
const maxPresize = 16 << 20

// ReadBody buffers a request or response body in one pass, presizing the
// buffer from contentLength (negative when unknown) up to maxPresize.
func ReadBody(r io.Reader, contentLength int64) ([]byte, error) {
	n := 512
	if contentLength > 0 {
		n = int(min(contentLength, maxPresize)) + 1 // +1: room to read EOF without growing
	}
	buf := make([]byte, 0, n)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Gate is the admission edge of a tier's API endpoints: POST only, no new
// work once draining, and a panic barrier. Set Panics before first use; a
// Gate must not be copied after it.
type Gate struct {
	// Panics counts handler panics the barrier contained.
	Panics *atomic.Int64

	mu       sync.Mutex
	draining bool
	handlers sync.WaitGroup
}

// Serve runs h behind the gate and returns the status the call answered. A
// non-POST call is 405 and a call while draining 503. A panic in h adds one
// to Panics and answers 500, unless h had already written: then its status
// stands and nothing is appended.
func (g *Gate) Serve(w http.ResponseWriter, r *http.Request, h http.HandlerFunc) int {
	rec := &recorder{ResponseWriter: w, code: http.StatusOK}
	switch {
	case r.Method != http.MethodPost:
		WriteError(rec, errNotPost)
	case !g.enter():
		WriteError(rec, ErrDraining)
	default:
		defer g.handlers.Done()
		if err := fault.Safely(func() error { h(rec, r); return nil }); err != nil {
			g.Panics.Add(1)
			if !rec.wrote {
				WriteError(rec, err)
			}
		}
	}
	return rec.code
}

// enter admits one handler unless the gate is draining. The WaitGroup Add
// happens under the lock BeginDrain takes, so no Add can follow Drain's Wait.
func (g *Gate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.handlers.Add(1)
	return true
}

// BeginDrain refuses new calls from now on; admitted ones run to completion.
// Idempotent.
func (g *Gate) BeginDrain() {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (g *Gate) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// Drain begins the drain and waits until every admitted handler has
// returned. Idempotent.
func (g *Gate) Drain() {
	g.BeginDrain()
	g.handlers.Wait()
}

// recorder captures the status a handler sent and whether it wrote at all.
type recorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *recorder) WriteHeader(code int) {
	r.code = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}
