package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"scale"
	"scale/internal/fault"
	"scale/internal/graph"
	"scale/internal/httpapi"
	"scale/internal/noc"
	"scale/internal/tensor"
)

func newTestSim(t *testing.T) *scale.Simulator {
	t.Helper()
	sim, err := scale.New(scale.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func startWorkers(t *testing.T, sim *scale.Simulator, n int) ([]string, []*Worker) {
	t.Helper()
	addrs := make([]string, n)
	workers := make([]*Worker, n)
	for i := range addrs {
		w := NewWorker(WorkerConfig{Sim: sim})
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		t.Cleanup(w.Close)
		addrs[i] = srv.URL
		workers[i] = w
	}
	return addrs, workers
}

func unshardedReference(t *testing.T, sim *scale.Simulator, spec SessionSpec, g *graph.Graph, x *tensor.Matrix) *tensor.Matrix {
	t.Helper()
	sess, err := sim.NewSessionPrecision(spec.Model, spec.Dims, spec.Precision)
	if err != nil {
		t.Fatal(err)
	}
	h := x
	for li := 0; li < sess.NumLayers(); li++ {
		h, err = sess.ForwardLayerCSR(context.Background(), li, g, h, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// The tentpole contract: a sharded fp32 pass is bit-identical to the
// unsharded one at 1, 2, and 4 shards, for every model family.
func TestPoolBitIdenticalToUnsharded(t *testing.T) {
	sim := newTestSim(t)
	addrs, _ := startWorkers(t, sim, 4)
	g := graph.CommunityGraph(240, 6, 8, 17)
	for _, model := range []string{"gcn", "gin", "gat"} {
		spec := SessionSpec{Model: model, Dims: []int{10, 7, 4}, Precision: "fp32"}
		x := tensor.NewMatrix(g.NumVertices(), 10)
		for i := range x.Data {
			x.Data[i] = float32(i%23)*0.17 - 1.5
		}
		want := unshardedReference(t, sim, spec, g, x)
		for _, parts := range []int{1, 2, 4} {
			pool, err := NewPool(PoolConfig{Workers: addrs, Parts: parts})
			if err != nil {
				t.Fatal(err)
			}
			got, plan, err := pool.Run(context.Background(), spec, g, x)
			if err != nil {
				t.Fatalf("%s parts=%d: %v", model, parts, err)
			}
			if plan.K != parts {
				t.Fatalf("%s: plan has %d shards, want %d", model, plan.K, parts)
			}
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("%s parts=%d: shape %dx%d, want %dx%d", model, parts, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for i, v := range got.Data {
				if v != want.Data[i] {
					t.Fatalf("%s parts=%d: element %d differs: %v vs %v", model, parts, i, v, want.Data[i])
				}
			}
		}
	}
}

// int8 sharded passes run (shape-compatible) but carry no bit-identity
// guarantee — the shared activation scale is computed per shard.
func TestPoolInt8Runs(t *testing.T) {
	sim := newTestSim(t)
	addrs, _ := startWorkers(t, sim, 2)
	g := graph.CommunityGraph(120, 4, 6, 3)
	spec := SessionSpec{Model: "gcn", Dims: []int{8, 5}, Precision: "int8"}
	x := tensor.NewMatrix(g.NumVertices(), 8)
	for i := range x.Data {
		x.Data[i] = float32(i%11) * 0.25
	}
	pool, err := NewPool(PoolConfig{Workers: addrs, Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := pool.Run(context.Background(), spec, g, x)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != g.NumVertices() || got.Cols != 5 {
		t.Fatalf("int8 output %dx%d, want %dx5", got.Rows, got.Cols, g.NumVertices())
	}
}

// Sharded int8 passes, pinned numerically: at one shard the worker holds
// every vertex, so its shared chain scale is the local pass's and the output
// is byte-identical to a local int8 session; at 2 and 4 shards each shard
// takes its scale over its own rows, and every output stays within 8 % of
// the largest local fp32 output (README, Precision). The linear-sum models
// run a narrowing chain, which aggregates the transformed rows, and a
// widening one, which aggregates the input rows.
func TestPoolInt8MatchesLocal(t *testing.T) {
	sim := newTestSim(t)
	addrs, _ := startWorkers(t, sim, 4)
	g := graph.CommunityGraph(240, 6, 8, 23)
	for _, model := range []string{"gcn", "gs-mean", "gin"} {
		for _, dims := range [][]int{{12, 6, 3}, {4, 8, 12}} {
			spec := SessionSpec{Model: model, Dims: dims, Precision: "int8"}
			x := tensor.NewMatrix(g.NumVertices(), dims[0])
			for i := range x.Data {
				x.Data[i] = float32(i%23)*0.17 - 1.5
			}
			local := unshardedReference(t, sim, spec, g, x)
			fp32 := spec
			fp32.Precision = "fp32"
			ref := unshardedReference(t, sim, fp32, g, x)
			var maxRef float64
			for _, v := range ref.Data {
				maxRef = math.Max(maxRef, math.Abs(float64(v)))
			}
			for _, parts := range []int{1, 2, 4} {
				pool, err := NewPool(PoolConfig{Workers: addrs, Parts: parts})
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := pool.Run(context.Background(), spec, g, x)
				if err != nil {
					t.Fatalf("%s %v parts=%d: %v", model, dims, parts, err)
				}
				if parts == 1 {
					if !got.Equal(local) {
						t.Fatalf("%s %v: one-shard int8 differs from local int8 (max |Δ| %g)",
							model, dims, got.MaxAbsDiff(local))
					}
					continue
				}
				var maxDiff float64
				for i, v := range got.Data {
					maxDiff = math.Max(maxDiff, math.Abs(float64(v-ref.Data[i])))
				}
				if maxDiff > 0.08*maxRef {
					t.Errorf("%s %v parts=%d: int8 max |Δ| %g from fp32 exceeds 8 %% of %g",
						model, dims, parts, maxDiff, maxRef)
				}
				t.Logf("%s %v parts=%d: max |Δ| / max |fp32| = %.2f %%", model, dims, parts, 100*maxDiff/maxRef)
			}
		}
	}
}

// A worker that dies mid-pass (after serving the load and the first layer)
// must be routed around: the pool reloads its shard at the current layer
// boundary on another worker, and the final output is still bit-identical.
func TestPoolMidPassFailover(t *testing.T) {
	sim := newTestSim(t)
	g := graph.CommunityGraph(180, 5, 7, 29)
	spec := SessionSpec{Model: "gcn", Dims: []int{9, 6, 4}, Precision: "fp32"}
	x := tensor.NewMatrix(g.NumVertices(), 9)
	for i := range x.Data {
		x.Data[i] = float32(i%13)*0.31 - 0.7
	}
	want := unshardedReference(t, sim, spec, g, x)

	// Two workers; whichever one rank routes shard 0 to starts failing
	// hard after two calls (enough to accept a load and serve layer 0, then
	// "crash"), so the failure always lands mid-pass on an owning worker.
	var flakyAddr atomic.Value // string: the URL that should start failing
	flakyAddr.Store("")
	var calls atomic.Int32
	urls := make([]string, 2)
	for i := range urls {
		w := NewWorker(WorkerConfig{Sim: sim})
		t.Cleanup(w.Close)
		self := &urls[i]
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if flakyAddr.Load() == *self && strings.HasPrefix(r.URL.Path, "/v1/shard/") && calls.Add(1) > 2 {
				rw.WriteHeader(http.StatusInternalServerError)
				return
			}
			w.Handler().ServeHTTP(rw, r)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}

	pool, err := NewPool(PoolConfig{Workers: urls, Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	flakyAddr.Store(rank(spec.key()+"#0", pool.cfg.Workers)[0])
	got, _, err := pool.Run(context.Background(), spec, g, x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got.Data {
		if v != want.Data[i] {
			t.Fatalf("element %d differs after failover: %v vs %v", i, v, want.Data[i])
		}
	}
	if flakyCalls := calls.Load(); flakyCalls < 3 {
		t.Fatalf("flaky worker saw %d calls; the failure path never triggered", flakyCalls)
	}
	if pool.Metrics().Failovers.Load() == 0 && pool.Metrics().Reloads.Load() == 0 {
		t.Fatal("pool recorded no failover activity")
	}
}

// Bad input (unknown model) must abort the pass with a permanent error, not
// cycle through every worker as if they were down.
func TestPoolPermanentError(t *testing.T) {
	sim := newTestSim(t)
	addrs, workers := startWorkers(t, sim, 2)
	g := graph.CommunityGraph(60, 2, 5, 1)
	x := tensor.NewMatrix(g.NumVertices(), 4)
	pool, err := NewPool(PoolConfig{Workers: addrs, Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = pool.Run(context.Background(), SessionSpec{Model: "no-such-model", Dims: []int{4, 2}, Precision: "fp32"}, g, x)
	if !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("unknown model: err = %v, want ErrBadConfig", err)
	}
	for i, w := range workers {
		if w.Metrics().Loads.Load() != 0 {
			t.Fatalf("worker %d accepted a load for a bad model", i)
		}
	}
	if _, _, err := pool.Run(context.Background(), SessionSpec{Model: "gcn", Dims: []int{4}, Precision: "fp32"}, g, x); !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("short dims: err = %v, want ErrBadConfig", err)
	}
	if _, _, err := pool.Run(context.Background(), SessionSpec{Model: "gcn", Dims: []int{5, 2}, Precision: "fp32"}, g, x); !errors.Is(err, fault.ErrBadShape) {
		t.Fatalf("mismatched features: err = %v, want ErrBadShape", err)
	}
}

// The worker's own contract: every refusal answers its status and JSON kind
// — layer calls on unknown runs 404 no_run, non-POST 405 usage, a full run
// table 429 over_capacity and a drain 503 draining, both with Retry-After.
func TestWorkerContract(t *testing.T) {
	sim := newTestSim(t)
	w := NewWorker(WorkerConfig{Sim: sim, MaxRuns: 1})
	defer w.Close()
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	// call sends one request and checks its status, its JSON error kind and
	// whether it carries Retry-After.
	call := func(method, path string, frame wireFrame, wantCode int, wantKind string, wantRetry bool) {
		t.Helper()
		var body []byte
		if frame != nil {
			body = frame.Encode()
		}
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e httpapi.Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s %s: status %d, error body: %v", method, path, resp.StatusCode, err)
		}
		if resp.StatusCode != wantCode || e.Kind != wantKind {
			t.Fatalf("%s %s: %d %q, want %d %q", method, path, resp.StatusCode, e.Kind, wantCode, wantKind)
		}
		if got := resp.Header.Get("Retry-After") != ""; got != wantRetry {
			t.Fatalf("%s %s: Retry-After present %v, want %v", method, path, got, wantRetry)
		}
	}
	load := func(id uint64) *LoadRequest {
		return &LoadRequest{
			ReqID: id, Model: "gcn", Precision: "fp32", Dims: []int32{2, 3},
			Owned: []int32{0, 1}, RowPtr: []int32{0, 0, 1}, ColIdx: []int32{0},
			Degrees: []int32{0, 1}, Features: []float32{1, 0, 0, 1},
		}
	}

	call(http.MethodPost, "/v1/shard/layer", &LayerRequest{ReqID: 42, Layer: 0, Cols: 1}, http.StatusNotFound, "no_run", false)
	call(http.MethodGet, "/v1/shard/load", nil, http.StatusMethodNotAllowed, "usage", false)

	// MaxRuns 1: the first load fills the run table, the second is refused.
	resp, err := http.Post(srv.URL+"/v1/shard/load", "application/octet-stream", bytes.NewReader(load(1).Encode()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("first load: status %d, want 204", resp.StatusCode)
	}
	call(http.MethodPost, "/v1/shard/load", load(2), http.StatusTooManyRequests, "over_capacity", true)
	if n := w.Metrics().Rejections.Load(); n != 1 {
		t.Fatalf("rejections = %d, want 1", n)
	}

	w.BeginDrain()
	call(http.MethodPost, "/v1/shard/load", load(3), http.StatusServiceUnavailable, "draining", true)
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", resp.StatusCode)
	}
}

// The load frame's validation table (validateLoad and graph.FromCSR), driven
// through the worker's load endpoint: a malformed frame is a 400 at load,
// before any session, matrix or layer call exists. The valid row runs last,
// so every 400 row meets a worker that has built no session yet.
func TestWorkerLoadValidation(t *testing.T) {
	w := NewWorker(WorkerConfig{Sim: newTestSim(t)})
	defer w.Close()
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	cases := []struct {
		name string
		edit func(q *LoadRequest)
		want int
	}{
		{"negative halo degree", func(q *LoadRequest) { q.Degrees[2] = -1 }, http.StatusBadRequest},
		{"dims past the element cap", func(q *LoadRequest) { q.Dims = []int32{2, 1 << 30} }, http.StatusBadRequest},
		{"short degrees", func(q *LoadRequest) { q.Degrees = q.Degrees[:2] }, http.StatusBadRequest},
		{"column index out of range", func(q *LoadRequest) { q.ColIdx[0] = 3 }, http.StatusBadRequest},
		{"start layer past the model", func(q *LoadRequest) { q.Layer = 1 }, http.StatusBadRequest},
		{"unsorted in-neighbour row", func(q *LoadRequest) { q.RowPtr, q.ColIdx = []int32{0, 0, 0, 2}, []int32{1, 0} }, http.StatusBadRequest},
		{"row pointer not starting at 0", func(q *LoadRequest) { q.RowPtr = []int32{1, 1, 2, 2} }, http.StatusBadRequest},
		{"valid", func(*LoadRequest) {}, http.StatusNoContent},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A 3-vertex path 0→1→2 with 2-wide features.
			q := &LoadRequest{
				ReqID: uint64(i + 1), Model: "gcn", Precision: "fp32", Dims: []int32{2, 3},
				Owned: []int32{0, 1, 2}, RowPtr: []int32{0, 0, 1, 2}, ColIdx: []int32{0, 1},
				Degrees: []int32{0, 1, 1}, Features: []float32{1, 0, 0, 1, 1, 1},
			}
			tc.edit(q)
			created := w.Metrics().SessionsCreated.Load()
			resp, err := http.Post(srv.URL+"/v1/shard/load", "application/octet-stream", bytes.NewReader(q.Encode()))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			if n := w.Metrics().SessionsCreated.Load(); tc.want == http.StatusBadRequest && n != created {
				t.Fatalf("a refused load built a session: SessionsCreated %d → %d", created, n)
			}
		})
	}
}

// Cost estimates ride along with a real pool run: the plan the pool returns
// feeds EstimateComm directly.
func TestPoolPlanFeedsEstimate(t *testing.T) {
	sim := newTestSim(t)
	addrs, _ := startWorkers(t, sim, 2)
	g := graph.CommunityGraph(150, 3, 8, 5)
	spec := SessionSpec{Model: "gcn", Dims: []int{6, 4, 3}, Precision: "fp32"}
	x := tensor.NewMatrix(g.NumVertices(), 6)
	pool, err := NewPool(PoolConfig{Workers: addrs, Parts: 2, Topology: noc.Ring})
	if err != nil {
		t.Fatal(err)
	}
	_, plan, err := pool.Run(context.Background(), spec, g, x)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateComm(plan, spec.Dims, 4, pool.Topology(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if est.Shards != 2 || est.HaloVertices != plan.HaloVertices {
		t.Fatalf("estimate does not reflect the plan: %+v", est)
	}
}

// Metrics exposes the worker's counters.
func (w *Worker) Metrics() *WorkerMetrics { return w.metrics }
