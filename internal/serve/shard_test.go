package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scale"
	"scale/internal/dyn"
	"scale/internal/graph"
	"scale/internal/shard"
)

func startShardWorkers(t *testing.T, sim *scale.Simulator, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		w := shard.NewWorker(shard.WorkerConfig{Sim: sim})
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		t.Cleanup(w.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

func postBody(t *testing.T, handler http.Handler, path string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	b, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, b
}

// The PR's acceptance golden: the sharded serving path answers /v1/infer with
// a byte-identical response body to single-process serving, at 1, 2, and 4
// shards, fp32. Compared at the HTTP layer — same JSON bytes, not just close
// floats.
func TestShardedServingGolden(t *testing.T) {
	sim, err := scale.New(scale.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.CommunityGraph(220, 5, 9, 41)
	body := map[string]any{
		"model": "gcn", "dims": []int{11, 7, 4},
		"num_vertices": g.NumVertices(),
	}
	var edges [][2]int
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.InNeighbors(v) {
			edges = append(edges, [2]int{int(u), v})
		}
	}
	feats := make([][]float32, g.NumVertices())
	for v := range feats {
		row := make([]float32, 11)
		for j := range row {
			row[j] = float32((v*31+j*7)%19)*0.13 - 1.1
		}
		feats[v] = row
	}
	body["edges"] = edges
	body["features"] = feats

	local := New(Config{Sim: sim})
	defer local.Close()
	wantCode, want := postBody(t, local.Handler(), "/v1/infer", body)
	if wantCode != http.StatusOK {
		t.Fatalf("local infer: status %d: %s", wantCode, want)
	}

	addrs := startShardWorkers(t, sim, 4)
	for _, parts := range []int{1, 2, 4} {
		pool, err := shard.NewPool(shard.PoolConfig{Workers: addrs, Parts: parts})
		if err != nil {
			t.Fatal(err)
		}
		sharded := New(Config{Sim: sim, ShardPool: pool})
		code, got := postBody(t, sharded.Handler(), "/v1/infer", body)
		sharded.Close()
		if code != http.StatusOK {
			t.Fatalf("parts=%d: status %d: %s", parts, code, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("parts=%d: sharded response differs from single-process serving", parts)
		}
	}
}

// TestShardedStatusParity sends every bad-input row of TestStatusMapping to
// a pool-fronting server, where every valid carried graph takes the sharded
// route, and requires the status and kind the local path answers.
func TestShardedStatusParity(t *testing.T) {
	sim, err := scale.New(scale.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := shard.NewPool(shard.PoolConfig{Workers: startShardWorkers(t, sim, 2), Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{Sim: sim, ShardPool: pool})
	rows := 0
	for _, tc := range statusCases() {
		if tc.wantCode != http.StatusBadRequest {
			continue
		}
		rows++
		t.Run(tc.name, func(t *testing.T) {
			checkStatus(t, tc, do(t, srv, tc.method, tc.path, tc.body))
		})
	}
	if got := pool.Metrics().Requests.Load(); got != 1 {
		t.Fatalf("pool ran %d passes, want 1 (only the unknown model reaches a worker)", got)
	}
	if rows == 0 {
		t.Fatal("no bad-input rows")
	}
}

// ringBody is a request-carried n-vertex ring with 4-wide features.
func ringBody(n int) inferBody {
	b := inferBody{Model: "gcn", Dims: []int{4, 8, 4}, NumVertices: n}
	for v := 0; v < n; v++ {
		b.Edges = append(b.Edges, [2]int{v, (v + 1) % n})
		b.Features = append(b.Features, []float32{float32(v%5) * 0.25, 1, 0, -1})
	}
	return b
}

// TestInferRoute pins the /v1/infer route decision on a server where every
// route is available: a 1-worker shard pool with a 50-vertex floor and a
// dynamic graph. Each row sends one body shape and requires exactly its
// route's counters to move: the micro-batcher's Batches (batched), the
// pool's Requests (sharded), DynRequests and SampledRequests (direct).
func TestInferRoute(t *testing.T) {
	sim := testSim(t)
	pool, err := shard.NewPool(shard.PoolConfig{Workers: startShardWorkers(t, sim, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Sim: sim, ShardPool: pool, ShardMinVertices: 50, Dynamic: newDynGraph(t, dyn.Config{})})

	sampled := ringBody(50)
	sampled.SampleFanout, sampled.SampleSeed = 1, 3
	dynamic := inferBody{Model: "gcn", Dims: []int{8, 16, 8}, Graph: "dynamic"}
	dynSampled := dynamic
	dynSampled.SampleFanout, dynSampled.SampleSeed = 3, 5

	type counts struct{ sharded, batches, dyn, sampled int64 }
	snapshot := func() counts {
		m := s.Metrics()
		return counts{pool.Metrics().Requests.Load(), m.Batches.Load(), m.DynRequests.Load(), m.SampledRequests.Load()}
	}
	for _, tc := range []struct {
		name string
		body inferBody
		want counts
	}{
		{"carried graph below the floor is batched", ringBody(49), counts{batches: 1}},
		{"carried graph at the floor is sharded", ringBody(50), counts{sharded: 1}},
		{"sampled carried graph is direct", sampled, counts{sampled: 1}},
		{"dynamic graph is direct", dynamic, counts{dyn: 1}},
		{"sampled dynamic graph is direct", dynSampled, counts{dyn: 1, sampled: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := snapshot()
			if rec := do(t, s, http.MethodPost, "/v1/infer", tc.body); rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			after := snapshot()
			got := counts{after.sharded - before.sharded, after.batches - before.batches, after.dyn - before.dyn, after.sampled - before.sampled}
			if got != tc.want {
				t.Fatalf("counter deltas %+v, want %+v", got, tc.want)
			}
		})
	}
}

// /v1/simulate on a shard-fronting server carries the NoC-costed cross-shard
// communication estimate; /metrics carries the pool counters.
func TestSimulateShardingEstimate(t *testing.T) {
	sim, err := scale.New(scale.Options{})
	if err != nil {
		t.Fatal(err)
	}
	addrs := startShardWorkers(t, sim, 2)
	pool, err := shard.NewPool(shard.PoolConfig{Workers: addrs, Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Sim: sim, ShardPool: pool})
	defer srv.Close()

	code, body := postBody(t, srv.Handler(), "/v1/simulate", map[string]any{"model": "gcn", "dataset": "cora"})
	if code != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", code, body)
	}
	var resp struct {
		Cycles   int64 `json:"Cycles"`
		Sharding *struct {
			Shards           int     `json:"shards"`
			Topology         string  `json:"topology"`
			HaloBytes        int64   `json:"halo_bytes"`
			ExchangeCycles   int64   `json:"exchange_cycles"`
			PredictedSpeedup float64 `json:"predicted_speedup"`
			ExposedFraction  float64 `json:"exposed_fraction"`
		} `json:"sharding"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Sharding == nil {
		t.Fatalf("simulate response has no sharding estimate: %s", body)
	}
	if resp.Sharding.Shards != 2 || resp.Sharding.Topology != "ring" {
		t.Fatalf("estimate labels wrong: %+v", resp.Sharding)
	}
	if resp.Sharding.PredictedSpeedup <= 1 || resp.Sharding.PredictedSpeedup > 2 {
		t.Fatalf("2-shard predicted speedup %v outside (1, 2]", resp.Sharding.PredictedSpeedup)
	}
	if resp.Sharding.HaloBytes <= 0 || resp.Sharding.ExchangeCycles <= 0 {
		t.Fatalf("estimate missing exchange cost: %+v", resp.Sharding)
	}

	// A server without a pool answers with no sharding key at all.
	plain := New(Config{Sim: sim})
	defer plain.Close()
	_, plainBody := postBody(t, plain.Handler(), "/v1/simulate", map[string]any{"model": "gcn", "dataset": "cora"})
	if bytes.Contains(plainBody, []byte("sharding")) {
		t.Fatal("plain server leaked a sharding estimate")
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	metrics := rec.Body.String()
	for _, want := range []string{"scale_shard_pool_requests_total", "scale_shard_pool_failovers_total", "scale_shard_pool_halo_bytes_total", "scale_shard_pool_workers 2"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// A shard-fronting server builds and partitions each dataset once: after one
// /v1/simulate the dataset's plan is memoized, and a second call answers
// the same bytes from it.
func TestSimulatePlanMemoized(t *testing.T) {
	sim, err := scale.New(scale.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := shard.NewPool(shard.PoolConfig{Workers: startShardWorkers(t, sim, 2), Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Sim: sim, ShardPool: pool})
	defer srv.Close()
	body := map[string]any{"model": "gcn", "dataset": "pubmed"}
	code, first := postBody(t, srv.Handler(), "/v1/simulate", body)
	if code != http.StatusOK || !bytes.Contains(first, []byte(`"sharding"`)) {
		t.Fatalf("simulate: status %d: %s", code, first)
	}
	plan, err := srv.plans.Get("pubmed", func() (*shard.Plan, error) {
		t.Fatal("the simulate call left no plan in the memo")
		return nil, nil
	})
	if err != nil || plan == nil || plan.K != 2 {
		t.Fatalf("memoized plan %+v, %v", plan, err)
	}
	if _, second := postBody(t, srv.Handler(), "/v1/simulate", body); !bytes.Equal(first, second) {
		t.Fatalf("memoized estimate differs:\n%s\n%s", first, second)
	}
}

// Full-pool outage: a front whose every worker is dead still answers
// shard-sized infers — bit-identically, via the local single-process
// fallback — and surfaces the outage in /healthz and /metrics.
func TestDegradedFallback(t *testing.T) {
	sim, err := scale.New(scale.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.CommunityGraph(150, 4, 8, 23)
	body := map[string]any{
		"model": "gcn", "dims": []int{7, 5, 3},
		"num_vertices": g.NumVertices(),
	}
	var edges [][2]int
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.InNeighbors(v) {
			edges = append(edges, [2]int{int(u), v})
		}
	}
	feats := make([][]float32, g.NumVertices())
	for v := range feats {
		row := make([]float32, 7)
		for j := range row {
			row[j] = float32((v*13+j*5)%17)*0.19 - 0.8
		}
		feats[v] = row
	}
	body["edges"] = edges
	body["features"] = feats

	plain := New(Config{Sim: sim})
	defer plain.Close()
	wantCode, want := postBody(t, plain.Handler(), "/v1/infer", body)
	if wantCode != http.StatusOK {
		t.Fatalf("plain infer: status %d: %s", wantCode, want)
	}

	// A worker address that is guaranteed dead: boot a server, take its port,
	// shut it down.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	pool, err := shard.NewPool(shard.PoolConfig{
		Workers:          []string{deadURL},
		BreakerThreshold: 1,
		DownFor:          time.Minute,
		RequestTimeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Sim: sim, ShardPool: pool})
	defer srv.Close()

	// First request: the pool still believes its worker alive, discovers the
	// outage on the data plane, and the serve layer falls back locally.
	code, got := postBody(t, srv.Handler(), "/v1/infer", body)
	if code != http.StatusOK {
		t.Fatalf("dead-pool infer: status %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded fallback response differs from single-process serving")
	}
	if srv.Metrics().DegradedRequests.Load() == 0 {
		t.Fatal("fallback did not count as a degraded request")
	}

	// Second request: the breaker is open now, so the degraded pre-check
	// short-circuits before any worker I/O.
	code, got = postBody(t, srv.Handler(), "/v1/infer", body)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("degraded pre-check infer: status %d, identical=%v", code, bytes.Equal(got, want))
	}
	if srv.Metrics().DegradedRequests.Load() < 2 {
		t.Fatalf("degraded requests = %d, want ≥2", srv.Metrics().DegradedRequests.Load())
	}

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded /healthz status %d, want 200 (still serving)", rec.Code)
	}
	health := rec.Body.String()
	for _, frag := range []string{`"status":"degraded"`, `"degraded":true`, `"shard_workers_live":0`} {
		if !strings.Contains(health, frag) {
			t.Fatalf("/healthz %q missing %q", health, frag)
		}
	}

	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	metrics := rec.Body.String()
	for _, frag := range []string{"scale_serve_degraded 1", "scale_shard_pool_breaker_open 1", "scale_shard_pool_workers_live 0"} {
		if !strings.Contains(metrics, frag) {
			t.Fatalf("/metrics missing %q", frag)
		}
	}
	if !strings.Contains(metrics, "scale_serve_degraded_requests_total 2") {
		t.Fatalf("/metrics degraded counter wrong:\n%s", metrics)
	}
}

// TestCarriedFeaturesAdopted pins the adoption of decoded features:
// carriedGraph's matrix is the decoder's flat slice, not a copy, and no
// route writes into the matrix it is handed. One decoded body runs a
// sharded pass at both precisions, a sampled direct pass, and a sharded
// pass on a dead pool that falls back to the batched route; after each, its
// features must still equal a fresh decode bit for bit.
func TestCarriedFeaturesAdopted(t *testing.T) {
	req := testGraph(11, 80, 4, 6)
	for v := 0; v < len(req.Features); v += 2 {
		for j, f := range req.Features[v] {
			req.Features[v][j] = float32(math.Round(float64(f)*8)) / 8 // the exact-divide path
		}
	}
	raw, err := json.Marshal(inferBody{Model: "gcn", Dims: []int{6, 8, 4}, NumVertices: req.NumVertices, Edges: req.Edges, Features: req.Features})
	if err != nil {
		t.Fatal(err)
	}
	body, err := parseInferBody(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, x := body.carriedGraph(); &x.Data[0] != &body.flat[0] || &body.Features[0][0] != &body.flat[0] {
		t.Fatal("carriedGraph copied the decoded features instead of adopting them")
	}

	sim := testSim(t)
	pool, err := shard.NewPool(shard.PoolConfig{Workers: startShardWorkers(t, sim, 2), Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	live := newTestServer(t, Config{Sim: sim, ShardPool: pool, ShardMinVertices: 1})
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	deadPool, err := shard.NewPool(shard.PoolConfig{Workers: []string{deadURL}, BreakerThreshold: 1, DownFor: time.Minute, RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	degraded := newTestServer(t, Config{Sim: sim, ShardPool: deadPool, ShardMinVertices: 1})

	for _, tc := range []struct {
		name      string
		s         *Server
		precision string
		fanout    int
		want      route
	}{
		{"sharded fp32", live, "fp32", 0, routeSharded},
		{"sharded int8", live, "int8", 0, routeSharded},
		{"sampled direct", live, "fp32", 2, routeDirect},
		{"degraded fallback", degraded, "fp32", 0, routeSharded},
	} {
		body.Precision, body.SampleFanout, body.SampleSeed = tc.precision, tc.fanout, 9
		rt, err := tc.s.route(&body)
		if err != nil || rt != tc.want {
			t.Fatalf("%s: route %v, %v; want %v", tc.name, rt, err, tc.want)
		}
		if _, err := tc.s.run(context.Background(), rt, &body); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fresh, err := parseInferBody(raw)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range fresh.flat {
			if math.Float32bits(body.flat[i]) != math.Float32bits(f) {
				t.Fatalf("%s wrote into the decoded features: value %d is %v, decoded %v", tc.name, i, body.flat[i], f)
			}
		}
		if err := flatHoldsRows(body); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	if got := pool.Metrics().Requests.Load(); got != 2 {
		t.Fatalf("live pool ran %d passes, want 2", got)
	}
	if got := degraded.Metrics().DegradedRequests.Load(); got != 1 {
		t.Fatalf("dead pool fell back %d times, want 1", got)
	}
}
