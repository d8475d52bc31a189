package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"scale/internal/fault"
)

// TestClassify pins the status contract one row per kind, through both
// Classify and WriteError: the status, the JSON kind and message, and
// Retry-After: 1 on exactly the retryable answers (429, 503).
func TestClassify(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		wantCode int
		wantKind string
	}{
		{"usage", errNotPost, 405, "usage"},
		{"bad config", fmt.Errorf("unknown model: %w", fault.ErrBadConfig), 400, "bad_input"},
		{"bad graph", fmt.Errorf("edge out of range: %w", fault.ErrBadGraph), 400, "bad_input"},
		{"bad shape", fmt.Errorf("ragged row: %w", fault.ErrBadShape), 400, "bad_input"},
		{"deadline", fmt.Errorf("forward: %w", context.DeadlineExceeded), 408, "timeout"},
		{"cancel", context.Canceled, 408, "timeout"},
		{"draining", fmt.Errorf("worker: %w", ErrDraining), 503, "draining"},
		{"over capacity", fmt.Errorf("queue full: %w", ErrOverCapacity), 429, "over_capacity"},
		{"no run", fmt.Errorf("run 42: %w", ErrNoRun), 404, "no_run"},
		{"panic", fault.Recovered("boom"), 500, "panic"},
		{"panic wrapping an input sentinel", fault.Recovered(fmt.Errorf("bad: %w", fault.ErrBadGraph)), 500, "panic"},
		{"internal", errors.New("disk on fire"), 500, "internal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code, kind := Classify(tc.err); code != tc.wantCode || kind != tc.wantKind {
				t.Fatalf("Classify = %d %q, want %d %q", code, kind, tc.wantCode, tc.wantKind)
			}
			rec := httptest.NewRecorder()
			WriteError(rec, tc.err)
			if rec.Code != tc.wantCode {
				t.Fatalf("WriteError code %d, want %d", rec.Code, tc.wantCode)
			}
			var e Error
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("body %q: %v", rec.Body.String(), err)
			}
			if e.Kind != tc.wantKind || e.Error != tc.err.Error() {
				t.Fatalf("payload %+v, want kind %q and message %q", e, tc.wantKind, tc.err.Error())
			}
			retryable := tc.wantCode == 429 || tc.wantCode == 503
			if ra := rec.Header().Get("Retry-After"); (ra != "") != retryable || (retryable && ra != "1") {
				t.Fatalf("Retry-After = %q on a %d", ra, tc.wantCode)
			}
		})
	}
	if code, _ := Classify(nil); code != http.StatusOK {
		t.Fatalf("Classify(nil) = %d", code)
	}
}

// TestWriteJSONUnencodable requires a payload encoding/json refuses to
// answer 500 internal with an Error body, never its own status with a cut
// body, and a payload it accepts to keep its status and bytes.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]float64{"loss": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var e Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Kind != "internal" || e.Error == "" {
		t.Fatalf("body %q (%v), want an internal Error", rec.Body.String(), err)
	}
	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusAccepted, map[string]float64{"loss": 0.5})
	if rec.Code != http.StatusAccepted || rec.Body.String() != "{\"loss\":0.5}\n" || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d body %q Content-Type %q", rec.Code, rec.Body.String(), rec.Header().Get("Content-Type"))
	}
}

// serve sends one call through g and returns the recorded answer.
func serve(g *Gate, method string, h http.HandlerFunc) (*httptest.ResponseRecorder, int) {
	rec := httptest.NewRecorder()
	code := g.Serve(rec, httptest.NewRequest(method, "/v1/x", strings.NewReader("{}")), h)
	return rec, code
}

func kindOf(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var e Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("body %q: %v", rec.Body.String(), err)
	}
	return e.Kind
}

// TestGate pins the gate: POST only, drain refusals, the panic barrier on
// both sides of a handler's first write, and Drain waiting for admitted
// handlers.
func TestGate(t *testing.T) {
	var panics atomic.Int64
	g := &Gate{Panics: &panics}
	called := false
	ok := func(w http.ResponseWriter, r *http.Request) { called = true; w.WriteHeader(http.StatusNoContent) }

	if rec, code := serve(g, http.MethodGet, ok); code != 405 || rec.Code != 405 || kindOf(t, rec) != "usage" || called {
		t.Fatalf("GET: %d %s (handler called: %v)", rec.Code, rec.Body.String(), called)
	}
	if _, code := serve(g, http.MethodPost, ok); code != http.StatusNoContent || !called {
		t.Fatalf("POST: %d (handler called: %v)", code, called)
	}

	rec, code := serve(g, http.MethodPost, func(http.ResponseWriter, *http.Request) { panic("before any write") })
	if code != 500 || rec.Code != 500 || kindOf(t, rec) != "panic" || panics.Load() != 1 {
		t.Fatalf("panic before write: %d %s, %d panics", rec.Code, rec.Body.String(), panics.Load())
	}
	rec, code = serve(g, http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte("partial"))
		panic("after a write")
	})
	if code != http.StatusAccepted || rec.Code != http.StatusAccepted || rec.Body.String() != "partial" || panics.Load() != 2 {
		t.Fatalf("panic after write: %d %q, %d panics", rec.Code, rec.Body.String(), panics.Load())
	}

	// Drain waits for an admitted handler. The handler returns only once
	// Drain has been called, so a Drain that did not wait would report
	// before it.
	entered, calling := make(chan struct{}), make(chan struct{})
	order := make(chan string, 2)
	go serve(g, http.MethodPost, func(http.ResponseWriter, *http.Request) {
		close(entered)
		<-calling
		order <- "handler"
	})
	<-entered
	g.BeginDrain()
	rec, _ = serve(g, http.MethodPost, ok)
	if rec.Code != 503 || kindOf(t, rec) != "draining" || rec.Header().Get("Retry-After") != "1" || !g.Draining() {
		t.Fatalf("call while draining: %d %s, Retry-After %q", rec.Code, rec.Body.String(), rec.Header().Get("Retry-After"))
	}
	go func() {
		close(calling)
		g.Drain()
		order <- "drain"
	}()
	if first, second := <-order, <-order; first != "handler" || second != "drain" {
		t.Fatalf("Drain returned before the admitted handler: order %s, %s", first, second)
	}
	g.Drain() // idempotent
}

// TestSessions pins the cache: LRU eviction, its counters, a failed build
// caching nothing, and the key format the shard ring routes on.
func TestSessions(t *testing.T) {
	var created, evicted atomic.Int64
	var builds []string
	c := NewSessions(2, func(model string, dims []int, precision string) (string, error) {
		if model == "bad" {
			return "", fmt.Errorf("unknown model: %w", fault.ErrBadConfig)
		}
		builds = append(builds, model)
		return model + "!", nil
	}, &created, &evicted)
	get := func(model string) string {
		t.Helper()
		v, err := c.Get(model, []int{4, 2}, "fp32")
		if err != nil || v != model+"!" {
			t.Fatalf("Get(%s) = %q, %v", model, v, err)
		}
		return v
	}
	get("A")
	get("B")
	get("A")
	get("C") // full: evicts B, the least recently used, not A
	get("A")
	if got := strings.Join(builds, ","); got != "A,B,C" {
		t.Fatalf("builds = %s, want A,B,C (A must stay cached)", got)
	}
	if created.Load() != 3 || evicted.Load() != 1 || c.Len() != 2 {
		t.Fatalf("created %d, evicted %d, len %d; want 3, 1, 2", created.Load(), evicted.Load(), c.Len())
	}
	get("B")
	if got := strings.Join(builds, ","); got != "A,B,C,B" {
		t.Fatalf("builds = %s: B was not evicted", got)
	}

	if _, err := c.Get("bad", []int{4, 2}, "fp32"); !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("failed build: err = %v", err)
	}
	if created.Load() != 4 || evicted.Load() != 2 || c.Len() != 2 {
		t.Fatalf("a failed build changed the cache: created %d, evicted %d, len %d", created.Load(), evicted.Load(), c.Len())
	}
	var keys []string
	c.Each(func(key, v string) { keys = append(keys, key+"="+v) })
	if got := strings.Join(keys, " "); got != "A/4/2/fp32=A! B/4/2/fp32=B!" {
		t.Fatalf("Each = %s", got)
	}
	c.Clear()
	if c.Len() != 0 || evicted.Load() != 2 {
		t.Fatalf("Clear left %d values, evicted %d", c.Len(), evicted.Load())
	}
	if k := SessionKey("gcn", []int{4, 8, 4}, "fp32"); k != "gcn/4/8/4/fp32" {
		t.Fatalf("SessionKey = %q", k)
	}
}

// TestSessionsConcurrent drives Get from several goroutines over more keys
// than the cache holds, for the race detector.
func TestSessionsConcurrent(t *testing.T) {
	var created, evicted atomic.Int64
	c := NewSessions(2, func(model string, dims []int, precision string) (string, error) {
		return model, nil
	}, &created, &evicted)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := fmt.Sprint((w + i) % 3)
				if v, err := c.Get(m, nil, "fp32"); err != nil || v != m {
					t.Errorf("Get(%s) = %q, %v", m, v, err)
				}
				c.Each(func(string, string) {})
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > 2 || int64(n) != created.Load()-evicted.Load() {
		t.Fatalf("len %d, created %d, evicted %d", n, created.Load(), evicted.Load())
	}
}

// TestPrometheus pins the writer's format: integers as %d at any size,
// floats as %g.
func TestPrometheus(t *testing.T) {
	var b strings.Builder
	Counter(&b, "c_total", "A counter.", 1000000)
	Gauge(&b, "g_int", "An int gauge.", 1000000)
	Gauge(&b, "g_float", "A float gauge.", 0.25)
	Header(&b, "h", "histogram", "A family.")
	want := "# HELP c_total A counter.\n# TYPE c_total counter\nc_total 1000000\n" +
		"# HELP g_int An int gauge.\n# TYPE g_int gauge\ng_int 1000000\n" +
		"# HELP g_float A float gauge.\n# TYPE g_float gauge\ng_float 0.25\n" +
		"# HELP h A family.\n# TYPE h histogram\n"
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestReadBodyPresize pins the buffering contract: Content-Length presizes
// the buffer only up to maxPresize, and the whole body is read whether the
// header understates or overstates it.
func TestReadBodyPresize(t *testing.T) {
	body := strings.Repeat("x", 3000)
	for _, cl := range []int64{-1, 0, 10, 3000, 1 << 40} {
		buf, err := ReadBody(strings.NewReader(body), cl)
		if err != nil || string(buf) != body {
			t.Fatalf("Content-Length %d: read %d bytes, err %v", cl, len(buf), err)
		}
		if cap(buf) > maxPresize+1 {
			t.Fatalf("Content-Length %d presized the buffer to %d bytes", cl, cap(buf))
		}
	}
}
