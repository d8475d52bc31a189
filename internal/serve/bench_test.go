package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"scale/internal/graph"
)

// benchServe measures end-to-end /v1/infer throughput through the full
// handler stack (admission queue → session cache → micro-batcher →
// forward). The workload is a small graph, where per-call fixed costs
// (scheduling, state checkout, layer prep) dominate — exactly the regime a
// micro-batcher exists for.
func benchServe(b *testing.B, cfg Config) {
	cfg.Sim = testSim(b)
	s := New(cfg)
	defer s.Close()

	req := testGraph(42, 32, 3, 8)
	body, err := json.Marshal(inferBody{
		Model: "gcn", Dims: []int{8, 16, 8}, NumVertices: req.NumVertices,
		Edges: req.Edges, Features: req.Features,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the session and weights once so both variants measure steady
	// state.
	if rec := do(b, s, "POST", "/v1/infer", string(body)); rec.Code != 200 {
		b.Fatalf("warmup: %d %s", rec.Code, rec.Body.String())
	}

	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := httptest.NewRequest("POST", "/v1/infer", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, r)
			if rec.Code != 200 {
				b.Errorf("code %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	})
}

// BenchmarkServeUnbatched is the one-request-at-a-time baseline: every
// request pays the full per-forward fixed cost.
func BenchmarkServeUnbatched(b *testing.B) {
	benchServe(b, Config{MaxBatch: 1})
}

// BenchmarkServeBatched lets the micro-batcher coalesce the concurrent
// clients; the recorded margin over BenchmarkServeUnbatched is the win
// committed to BENCH_pr5.json.
func BenchmarkServeBatched(b *testing.B) {
	benchServe(b, Config{MaxBatch: 16, BatchWindow: time.Millisecond})
}

// benchServeHeavy is benchServe on an aggregation-dominated workload — a
// dense graph with wide features, the regime the int8 tier targets. The
// fp32/int8 pair below shares this workload so their margin isolates the
// precision switch.
func benchServeHeavy(b *testing.B, precision string) {
	cfg := Config{MaxBatch: 16, BatchWindow: time.Millisecond, DefaultPrecision: precision}
	cfg.Sim = testSim(b)
	s := New(cfg)
	defer s.Close()

	req := testGraph(42, 256, 192, 64)
	body, err := json.Marshal(inferBody{
		Model: "gcn", Dims: []int{64, 32, 8}, NumVertices: req.NumVertices,
		Edges: req.Edges, Features: req.Features,
	})
	if err != nil {
		b.Fatal(err)
	}
	if rec := do(b, s, "POST", "/v1/infer", string(body)); rec.Code != 200 {
		b.Fatalf("warmup: %d %s", rec.Code, rec.Body.String())
	}

	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := httptest.NewRequest("POST", "/v1/infer", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, r)
			if rec.Code != 200 {
				b.Errorf("code %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	})
}

// BenchmarkServeBatchedHeavy is the float32 reference for the int8 serving
// comparison committed to BENCH_pr7.json.
func BenchmarkServeBatchedHeavy(b *testing.B) {
	benchServeHeavy(b, "fp32")
}

// BenchmarkServeBatchedHeavyInt8 runs the identical workload through the
// quantized tier (server-default precision int8).
func BenchmarkServeBatchedHeavyInt8(b *testing.B) {
	benchServeHeavy(b, "int8")
}

// carriedBody marshals a request-carried graph the way perfbench and the
// README build bodies: from a map, so the keys come out sorted. Feature
// values are multiples of 1/8 in [-2, 2], as in perfbench.
func carriedBody(b *testing.B, seed int64, n int, edges [][2]int, dims []int) []byte {
	rng := rand.New(rand.NewSource(seed))
	feats := make([][]float32, n)
	for v := range feats {
		feats[v] = make([]float32, dims[0])
		for j := range feats[v] {
			feats[v][j] = float32(rng.Intn(33)-16) / 8
		}
	}
	body, err := json.Marshal(map[string]any{
		"model": "gcn", "dims": dims, "precision": "fp32",
		"num_vertices": n, "edges": edges, "features": feats,
	})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

var sinkInferBody inferBody

// BenchmarkInferBodyDecode measures /v1/infer body decoding alone, from the
// request body to an inferBody, on perfbench's two carried-graph shapes:
// the Reddit-scale graph of carried-sharded (~7 MB) and a 72-vertex graph,
// small-open's mean size (16-128 vertices, 4 edges per vertex).
func BenchmarkInferBodyDecode(b *testing.B) {
	g := graph.MustByName("reddit").Build()
	var redditEdges [][2]int
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.InNeighbors(v) {
			redditEdges = append(redditEdges, [2]int{int(u), v})
		}
	}
	rng := rand.New(rand.NewSource(2))
	smallEdges := make([][2]int, 4*72)
	for i := range smallEdges {
		smallEdges[i] = [2]int{rng.Intn(72), rng.Intn(72)}
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"reddit", carriedBody(b, 1, g.NumVertices(), redditEdges, []int{602, 64, 41})},
		{"small72", carriedBody(b, 3, 72, smallEdges, []int{16, 32, 8})},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(tc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := &http.Request{Body: io.NopCloser(bytes.NewReader(tc.body)), ContentLength: int64(len(tc.body))}
				body, err := decodeInferBody(r)
				if err != nil {
					b.Fatal(err)
				}
				sinkInferBody = body
			}
		})
	}
}
