package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scale"
	"scale/internal/bench/faultinject"
	"scale/internal/httpapi"
)

func testSim(t testing.TB) *scale.Simulator {
	t.Helper()
	sim, err := scale.New(scale.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Sim == nil {
		cfg.Sim = testSim(t)
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// do posts body (marshalled to JSON when not a string) to path and returns
// the recorded response.
func do(t testing.TB, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case nil:
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(b); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func validInfer() inferBody {
	return inferBody{
		Model: "gin", Dims: []int{2, 3}, NumVertices: 3,
		Edges:    [][2]int{{0, 1}, {2, 1}},
		Features: [][]float32{{1, 0}, {0, 1}, {1, 1}},
	}
}

func decodeError(t testing.TB, rec *httptest.ResponseRecorder) httpapi.Error {
	t.Helper()
	var e httpapi.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body %q: %v", rec.Body.String(), err)
	}
	return e
}

// panicBackend injects a worker panic through the faultinject harness; the
// batcher must contain it into a 500 without killing the process.
func panicBackend(ctx context.Context, sess *scale.Session, reqs []scale.InferRequest) ([][][]float32, error) {
	plan := faultinject.Plan{0: {Kind: faultinject.Panic, Value: "injected backend panic"}}
	if err := plan.Wrap(func(int) error { return nil })(0); err != nil {
		return nil, err
	}
	return sess.InferBatch(ctx, reqs)
}

// stalledBackend blocks until the request context dies, then reports it —
// the deterministic driver for the 408 path.
func stalledBackend(ctx context.Context, sess *scale.Session, reqs []scale.InferRequest) ([][][]float32, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// statusCase is one TestStatusMapping row: a request and the status and
// error kind it must earn.
type statusCase struct {
	name     string
	cfg      Config
	method   string
	path     string
	body     any
	wantCode int
	wantKind string
}

// inferWith is a valid /v1/infer body with its edges and features values
// replaced by raw JSON.
func inferWith(edges, features string) string {
	return `{"model":"gin","dims":[2,3],"num_vertices":3,"edges":` + edges + `,"features":` + features + `}`
}

const (
	okEdges    = `[[0,1],[2,1]]`
	okFeatures = `[[1,0],[0,1],[1,1]]`
)

// statusCases is TestStatusMapping's table, one row per (input, expected
// status, expected kind).
func statusCases() []statusCase {
	badEdge := validInfer()
	badEdge.Edges = [][2]int{{0, 9}}
	badShape := validInfer()
	badShape.Features = badShape.Features[:2]
	raggedRow := validInfer()
	raggedRow.Features = [][]float32{{1, 0}, {0, 1}, {1, 1, 1}}
	badModel := validInfer()
	badModel.Model = "nope"
	tooBig := validInfer()
	tooBig.NumVertices = 1 << 30
	negFanout := validInfer()
	negFanout.SampleFanout = -1
	negTimeout := validInfer()
	negTimeout.TimeoutMS = -1
	hugeDims := validInfer()
	hugeDims.Dims = []int{2, 1 << 40}

	return []statusCase{
		{"infer ok", Config{}, "POST", "/v1/infer", validInfer(), 200, ""},
		{"null edges (no edges)", Config{}, "POST", "/v1/infer", inferWith("null", okFeatures), 200, ""},
		{"simulate ok", Config{}, "POST", "/v1/simulate", simulateBody{Model: "gcn", Dataset: "cora"}, 200, ""},
		{"simulate systolic", Config{}, "POST", "/v1/simulate", simulateBody{Model: "gcn", Dataset: "cora", Accel: "systolic"}, 200, ""},
		{"unknown accelerator (ErrBadConfig)", Config{}, "POST", "/v1/simulate", simulateBody{Model: "gcn", Dataset: "cora", Accel: "nope"}, 400, "bad_input"},
		{"infer GET", Config{}, "GET", "/v1/infer", nil, 405, "usage"},
		{"simulate GET", Config{}, "GET", "/v1/simulate", nil, 405, "usage"},
		{"bad JSON", Config{}, "POST", "/v1/infer", "{not json", 400, "bad_input"},
		{"infer trailing data", Config{}, "POST", "/v1/infer", inferWith(okEdges, okFeatures) + ` {"model":"nope"} garbage`, 400, "bad_input"},
		{"simulate trailing data", Config{}, "POST", "/v1/simulate", `{"model":"gcn","dataset":"cora"} {"model":"nope"}`, 400, "bad_input"},
		{"edge with one id", Config{}, "POST", "/v1/infer", inferWith(`[[2]]`, okFeatures), 400, "bad_input"},
		{"edge with three ids", Config{}, "POST", "/v1/infer", inferWith(`[[0,1,7]]`, okFeatures), 400, "bad_input"},
		{"null edge", Config{}, "POST", "/v1/infer", inferWith(`[null]`, okFeatures), 400, "bad_input"},
		{"null vertex id", Config{}, "POST", "/v1/infer", inferWith(`[[null,1]]`, okFeatures), 400, "bad_input"},
		{"null feature row", Config{}, "POST", "/v1/infer", inferWith(okEdges, `[[1,0],null,[1,1]]`), 400, "bad_input"},
		{"null feature value", Config{}, "POST", "/v1/infer", inferWith(okEdges, `[[1,0],[0,null],[1,1]]`), 400, "bad_input"},
		{"unknown model (ErrBadConfig)", Config{}, "POST", "/v1/infer", badModel, 400, "bad_input"},
		{"edge out of range (ErrBadGraph)", Config{}, "POST", "/v1/infer", badEdge, 400, "bad_input"},
		{"missing feature rows (ErrBadShape)", Config{}, "POST", "/v1/infer", badShape, 400, "bad_input"},
		{"ragged feature row (ErrBadShape)", Config{}, "POST", "/v1/infer", raggedRow, 400, "bad_input"},
		{"vertex cap", Config{}, "POST", "/v1/infer", tooBig, 400, "bad_input"},
		{"negative sample_fanout", Config{}, "POST", "/v1/infer", negFanout, 400, "bad_input"},
		{"negative timeout_ms", Config{}, "POST", "/v1/infer", negTimeout, 400, "bad_input"},
		{"dims entry past the element cap", Config{}, "POST", "/v1/infer", hugeDims, 400, "bad_input"},
		{"dynamic graph on a server without one", Config{}, "POST", "/v1/infer", inferBody{Model: "gcn", Dims: []int{8, 16, 8}, Graph: "dynamic"}, 400, "bad_input"},
		{"unknown dataset", Config{}, "POST", "/v1/simulate", simulateBody{Model: "gcn", Dataset: "nope"}, 400, "bad_input"},
		{"deadline (408)", Config{Backend: stalledBackend}, "POST", "/v1/infer",
			func() inferBody { b := validInfer(); b.TimeoutMS = 20; return b }(), 408, "timeout"},
		{"injected panic (500)", Config{Backend: panicBackend}, "POST", "/v1/infer", validInfer(), 500, "panic"},
	}
}

// checkStatus fails unless rec carries tc's status and error kind.
func checkStatus(t *testing.T, tc statusCase, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != tc.wantCode {
		t.Fatalf("code = %d (%s), want %d", rec.Code, rec.Body.String(), tc.wantCode)
	}
	if tc.wantKind != "" {
		if e := decodeError(t, rec); e.Kind != tc.wantKind {
			t.Fatalf("kind = %q (%s), want %q", e.Kind, rec.Body.String(), tc.wantKind)
		}
	}
}

// TestStatusMapping drives every HTTP status the API can answer through
// httptest. No 400 may build a session: on a full cache that would evict a
// warm one.
func TestStatusMapping(t *testing.T) {
	for _, tc := range statusCases() {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, tc.cfg)
			checkStatus(t, tc, do(t, s, tc.method, tc.path, tc.body))
			if n := s.Metrics().SessionsCreated.Load(); tc.wantCode == http.StatusBadRequest && n != 0 {
				t.Fatalf("a 400 built %d sessions", n)
			}
		})
	}
}

// TestQueueFull429 pins the backpressure contract: with a single admission
// slot held by a stalled request, the next request is shed immediately with
// 429 and a Retry-After hint, and the slot-holder still completes.
func TestQueueFull429(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{
		QueueDepth: 1,
		Backend: func(ctx context.Context, sess *scale.Session, reqs []scale.InferRequest) ([][][]float32, error) {
			<-release
			return sess.InferBatch(ctx, reqs)
		},
	})
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- do(t, s, "POST", "/v1/infer", validInfer()) }()
	// Wait for the first request to hold the only slot.
	for i := 0; s.queue.inUse() == 0; i++ {
		if i > 5000 {
			t.Fatal("first request never occupied the queue")
		}
		time.Sleep(time.Millisecond)
	}
	rec := do(t, s, "POST", "/v1/infer", validInfer())
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("code = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if e := decodeError(t, rec); e.Kind != "over_capacity" {
		t.Fatalf("kind = %q", e.Kind)
	}
	if n := s.Metrics().QueueRejections.Load(); n != 1 {
		t.Fatalf("queue rejections = %d", n)
	}
	close(release)
	if rec := <-first; rec.Code != http.StatusOK {
		t.Fatalf("slot holder finished %d: %s", rec.Code, rec.Body.String())
	}
}

// TestDrain503 pins the drain contract: after BeginDrain, healthz flips to
// 503 and new API requests are refused with 503 + Retry-After, while Close
// still returns (no stuck goroutines).
func TestDrain503(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec := do(t, s, "GET", "/healthz", nil); rec.Code != 200 {
		t.Fatalf("healthz before drain = %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/infer", validInfer()); rec.Code != 200 {
		t.Fatalf("infer before drain = %d", rec.Code)
	}
	s.BeginDrain()
	if rec := do(t, s, "GET", "/healthz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d", rec.Code)
	}
	rec := do(t, s, "POST", "/v1/infer", validInfer())
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("infer during drain = %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("drain refusal must carry Retry-After")
	}
	if e := decodeError(t, rec); e.Kind != "draining" {
		t.Fatalf("kind = %q", e.Kind)
	}
	s.Close()
	s.Close() // idempotent
}

// TestPanicIsolation proves one poisoned request degrades only itself: the
// 500 lands, the process survives, and the very next request on a fresh
// server config answers 200.
func TestPanicIsolation(t *testing.T) {
	calls := 0
	s := newTestServer(t, Config{
		MaxBatch: 1,
		Backend: func(ctx context.Context, sess *scale.Session, reqs []scale.InferRequest) ([][][]float32, error) {
			calls++
			if calls == 1 {
				return panicBackend(ctx, sess, reqs)
			}
			return sess.InferBatch(ctx, reqs)
		},
	})
	if rec := do(t, s, "POST", "/v1/infer", validInfer()); rec.Code != 500 {
		t.Fatalf("poisoned request = %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/infer", validInfer()); rec.Code != 200 {
		t.Fatalf("request after contained panic = %d: %s", rec.Code, rec.Body.String())
	}
	if n := s.Metrics().PanicsContained.Load(); n != 1 {
		t.Fatalf("panics contained = %d", n)
	}
}

// TestMetricsEndpoint sanity-checks the Prometheus rendering: counters for
// the statuses just produced, the latency histogram, and session gauges.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "POST", "/v1/infer", validInfer())
	do(t, s, "POST", "/v1/infer", "{not json")
	do(t, s, "POST", "/v1/simulate", simulateBody{Model: "gcn", Dataset: "cora"})
	rec := do(t, s, "GET", "/metrics", nil)
	if rec.Code != 200 {
		t.Fatalf("metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`scale_serve_requests_total{endpoint="infer",code="200"} 1`,
		`scale_serve_requests_total{endpoint="infer",code="400"} 1`,
		`scale_serve_requests_total{endpoint="simulate",code="200"} 1`,
		`scale_serve_sessions_live 1`,
		`scale_serve_request_seconds_bucket{endpoint="infer",le="+Inf"} 2`,
		`scale_serve_request_seconds_count{endpoint="simulate"} 1`,
		`scale_serve_batches_total 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
	if s.Metrics().RequestCount("infer", 200) != 1 {
		t.Error("RequestCount introspection broken")
	}
}

// TestHealthzShape checks the health payload fields.
func TestHealthzShape(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 7})
	do(t, s, "POST", "/v1/infer", validInfer())
	rec := do(t, s, "GET", "/healthz", nil)
	var h healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Sessions != 1 || h.QueueDepth != 7 || h.QueueInUse != 0 {
		t.Fatalf("health = %+v", h)
	}
}

// RequestCount returns the number of requests finished with the given
// endpoint and status code (test and ops introspection).
func (m *Metrics) RequestCount(endpoint string, code int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.requests[fmt.Sprintf("%s|%d", endpoint, code)]; ok {
		return c.Load()
	}
	return 0
}
