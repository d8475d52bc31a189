package serve

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"time"

	"scale"
	"scale/internal/dyn"
	"scale/internal/fault"
	"scale/internal/graph"
	"scale/internal/httpapi"
	"scale/internal/shard"
	"scale/internal/tensor"
)

// errQueueFull marks work refused because every admission slot is taken.
var errQueueFull = fmt.Errorf("serve: admission queue full: %w", httpapi.ErrOverCapacity)

// inferBody is the POST /v1/infer request payload.
type inferBody struct {
	// Model and Dims select the session (see scale.Session).
	Model string `json:"model"`
	Dims  []int  `json:"dims"`
	// NumVertices, Edges, Features describe the graph (see
	// scale.InferRequest).
	NumVertices int         `json:"num_vertices"`
	Edges       [][2]int    `json:"edges"`
	Features    [][]float32 `json:"features"`
	// flat is the decoder's backing store for Features: every value in
	// row order, each row a sub-slice of it. carriedGraph adopts it.
	flat []float32
	// TimeoutMS is the per-request deadline; it maps to context
	// cancellation through core.ForwardContext. 0 means no extra deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Precision selects the execution tier: "" (the server's default
	// precision), "fp32", or "int8". Unknown values are 400 bad_input.
	Precision string `json:"precision,omitempty"`
	// Graph selects the graph source: "" runs the request-carried
	// edges/features; "dynamic" runs the server's mutable graph
	// (Config.Dynamic) and ignores NumVertices/Edges/Features.
	Graph string `json:"graph,omitempty"`
	// SampleFanout > 0 enables GraphSAGE-style fixed-fanout sampled
	// inference: each layer aggregates over at most SampleFanout
	// in-neighbors per vertex, drawn deterministically from SampleSeed.
	// Responses are byte-identical across worker counts and replays of
	// the same (seed, fanout) pair.
	SampleFanout int    `json:"sample_fanout,omitempty"`
	SampleSeed   uint64 `json:"sample_seed,omitempty"`
}

// request is the body's request-carried graph.
func (b *inferBody) request() scale.InferRequest {
	return scale.InferRequest{NumVertices: b.NumVertices, Edges: b.Edges, Features: b.Features}
}

// carriedGraph materializes the request-carried graph for the whole-graph
// routes (sharded and direct) and adopts the decoded features as its input
// matrix, as shard.Worker adopts a load frame's: route has validated
// NumVertices rows of Dims[0] values, so flat is exactly the row-major
// matrix. Nothing on those routes writes into its input, so the request's
// Features rows, which share flat, stay intact for a degraded fallback.
func (b *inferBody) carriedGraph() (*graph.Graph, *tensor.Matrix) {
	gb := graph.NewBuilder(b.NumVertices)
	gb.Grow(len(b.Edges))
	for _, e := range b.Edges {
		gb.AddEdge(e[0], e[1])
	}
	return gb.Build("user"), &tensor.Matrix{Rows: b.NumVertices, Cols: b.Dims[0], Data: b.flat}
}

// simulateResponse is the POST /v1/simulate success payload: the timing
// report, plus — when the server fronts a shard pool — the NoC-costed
// cross-shard halo-exchange estimate for running that same workload sharded
// at the pool's shard count and topology.
type simulateResponse struct {
	scale.Report
	Sharding *shard.CommEstimate `json:"sharding,omitempty"`
}

// simulateBody is the POST /v1/simulate request payload. Accel selects the
// accelerator to simulate on: empty or "scale" runs the shared SCALE
// simulator; any internal/baseline backend name (awb-gcn, gcnax, regnn,
// flowgnn, i-gcn, systolic) runs that backend at the simulator's MAC budget.
// Unknown names map to 400 bad_input.
type simulateBody struct {
	Model   string `json:"model"`
	Dataset string `json:"dataset"`
	Accel   string `json:"accel,omitempty"`
}

// healthResponse is the GET /healthz payload. The shard fields only appear
// on a pool-fronting server: Degraded means every worker's circuit breaker
// is open and infer requests are being served by the local single-process
// fallback (fp32 results stay bit-identical by construction).
type healthResponse struct {
	Status           string  `json:"status"`
	UptimeSeconds    float64 `json:"uptime_seconds"`
	Sessions         int     `json:"sessions"`
	QueueInUse       int     `json:"queue_in_use"`
	QueueDepth       int     `json:"queue_depth"`
	ShardWorkersLive *int    `json:"shard_workers_live,omitempty"`
	Degraded         *bool   `json:"degraded,omitempty"`
}

// badBody marks a body that did not decode as bad input (400).
func badBody(err error) error {
	return fmt.Errorf("bad JSON body: %v: %w", err, fault.ErrBadGraph)
}

// admit mounts an API endpoint behind the gate — POST only (405), not
// draining (503), the panic barrier — and a free admission-queue slot (429
// + Retry-After), and records its latency and status.
func (s *Server) admit(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	slotted := func(w http.ResponseWriter, r *http.Request) {
		if !s.queue.tryAcquire() {
			s.metrics.QueueRejections.Add(1)
			httpapi.WriteError(w, errQueueFull)
			return
		}
		defer s.queue.release()
		h(w, r)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code := s.gate.Serve(w, r, slotted)
		s.metrics.ObserveRequest(endpoint, code, time.Since(start))
	}
}

// route is the serving path of one /v1/infer request.
type route int

const (
	// routeBatched runs on the local session cache and micro-batcher.
	routeBatched route = iota
	// routeSharded runs across the shard worker pool.
	routeSharded
	// routeDirect runs one unbatched pass on a local session.
	routeDirect
)

// errNoDynamic answers dynamic-graph requests to a server without one.
var errNoDynamic = fmt.Errorf("serve: server has no dynamic graph (-dynamic): %w", fault.ErrBadConfig)

// handleInfer serves POST /v1/infer: decode → route → run → write. It is the
// only writer of an infer response.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	body, err := decodeInferBody(r)
	if err != nil {
		httpapi.WriteError(w, badBody(err))
		return
	}
	rt, err := s.route(&body)
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	// Normalize the precision before the session lookup so "", the server
	// default, and an explicit "fp32" all share one session. Unknown values
	// flow into NewSessionPrecision, whose typed error maps to 400.
	body.Precision = cmp.Or(body.Precision, s.cfg.DefaultPrecision, "fp32")
	ctx := r.Context()
	if body.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(body.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	rows, err := s.run(ctx, rt, &body)
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	if err := writeInfer(w, body.Model, body.Precision, rows); err != nil {
		httpapi.WriteError(w, err)
	}
}

// route makes every check that needs no session, then picks the request's
// route. It runs before any session is built, so a 400 never builds or
// evicts one.
//
//   - "graph":"dynamic" or sample_fanout > 0 → direct. The dynamic vertex
//     set is the server's own, and sampling seeds bind to request-local
//     vertex ids; disjoint-union batching (which shifts ids) and shard
//     routing apply to neither.
//   - a carried graph of at least ShardMinVertices on a pool-fronting
//     server → sharded.
//   - everything else → batched.
func (s *Server) route(body *inferBody) (route, error) {
	if body.NumVertices > s.cfg.MaxVertices {
		return 0, fmt.Errorf("serve: request has %d vertices, server caps at %d: %w", body.NumVertices, s.cfg.MaxVertices, fault.ErrBadGraph)
	}
	if body.SampleFanout < 0 {
		return 0, fmt.Errorf("serve: negative sample_fanout %d: %w", body.SampleFanout, fault.ErrBadConfig)
	}
	if body.TimeoutMS < 0 {
		return 0, fmt.Errorf("serve: negative timeout_ms %d: %w", body.TimeoutMS, fault.ErrBadConfig)
	}
	switch body.Graph {
	case "":
	case "dynamic":
		if s.cfg.Dynamic == nil {
			return 0, errNoDynamic
		}
		if w := s.cfg.Dynamic.FeatureDim(); len(body.Dims) > 0 && body.Dims[0] != w {
			return 0, fmt.Errorf("serve: dims[0] is %d, the dynamic graph's features are %d wide: %w", body.Dims[0], w, fault.ErrBadShape)
		}
		if err := shard.ValidateDims(s.cfg.Dynamic.NumVertices(), body.Dims); err != nil {
			return 0, err
		}
		return routeDirect, nil
	default:
		return 0, fmt.Errorf("serve: unknown graph source %q: %w", body.Graph, fault.ErrBadConfig)
	}
	if err := validateCarried(body); err != nil {
		return 0, err
	}
	switch {
	case body.SampleFanout > 0:
		return routeDirect, nil
	case s.cfg.ShardPool != nil && body.NumVertices >= s.cfg.ShardMinVertices:
		return routeSharded, nil
	}
	return routeBatched, nil
}

// run executes a routed request. A healthy sharded pass builds no local
// session: weights live only on the workers. When the pool has no live
// workers, or the pass fails for an infrastructure reason
// (fallbackEligible), the request falls back to the batched route instead
// of failing. fp32 answers are bit-identical either way, so the client only
// sees the difference in /healthz and the scale_serve_degraded gauge.
func (s *Server) run(ctx context.Context, rt route, body *inferBody) ([][]float32, error) {
	switch rt {
	case routeSharded:
		if !s.cfg.ShardPool.Degraded() {
			rows, err := s.runSharded(ctx, body)
			if !fallbackEligible(err) {
				return rows, err
			}
		}
		s.metrics.DegradedRequests.Add(1)
		fallthrough
	case routeBatched:
		b, err := s.sessions.Get(body.Model, body.Dims, body.Precision)
		if err != nil {
			return nil, err
		}
		p := &pending{req: body.request(), ctx: ctx, done: make(chan batchResult, 1)}
		b.submit(p)
		select {
		case res := <-p.done:
			return res.rows, res.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	default:
		b, err := s.sessions.Get(body.Model, body.Dims, body.Precision)
		if err != nil {
			return nil, err
		}
		return s.runDirect(ctx, b.sess, body)
	}
}

// runSharded runs one pass across the shard pool's workers.
func (s *Server) runSharded(ctx context.Context, body *inferBody) ([][]float32, error) {
	g, x := body.carriedGraph()
	out, _, err := s.cfg.ShardPool.Run(ctx, shard.SessionSpec{Model: body.Model, Dims: body.Dims, Precision: body.Precision}, g, x)
	if err != nil {
		return nil, err
	}
	return out.RowViews(0, out.Rows), nil
}

// runDirect runs one unbatched forward pass under Config.SampleWorkers, over
// the dynamic graph's current snapshot or the carried graph, sampled when
// sample_fanout > 0. fp32 responses are byte-identical for every worker
// count and across replays of the same seed.
func (s *Server) runDirect(ctx context.Context, sess *scale.Session, body *inferBody) ([][]float32, error) {
	var g *graph.Graph
	var x *tensor.Matrix
	if body.Graph == "dynamic" {
		s.metrics.DynRequests.Add(1)
		var err error
		if g, x, err = s.cfg.Dynamic.View(); err != nil {
			return nil, err
		}
	} else {
		g, x = body.carriedGraph()
	}
	if body.SampleFanout == 0 {
		return sess.InferGraph(ctx, g, x, s.cfg.SampleWorkers)
	}
	s.metrics.SampledRequests.Add(1)
	layers, err := dyn.Sampler{Fanout: body.SampleFanout, Seed: body.SampleSeed}.Sample(g, sess.NumLayers())
	if err != nil {
		return nil, err
	}
	return sess.InferSampled(ctx, layers, x, s.cfg.SampleWorkers)
}

// fallbackEligible decides whether a failed sharded pass may be retried
// locally: only an infrastructure failure (workers unreachable, every
// candidate exhausted), which classifies as internal. The caller's own
// problems are not — bad input must keep its 400, a spent deadline its 408,
// and a contained panic its 500 (the panic would likely reproduce locally).
func fallbackEligible(err error) bool {
	_, kind := httpapi.Classify(err)
	return kind == "internal"
}

// validateCarried checks a request-carried graph for every route, before
// any session exists: the dims chain (shard.ValidateDims), then
// scale.InferRequest.Validate against its input width.
func validateCarried(body *inferBody) error {
	if err := shard.ValidateDims(body.NumVertices, body.Dims); err != nil {
		return err
	}
	return body.request().Validate(body.Dims[0])
}

// handleSimulate serves POST /v1/simulate: one timing-model run of (model,
// dataset) on the shared simulator, reported as a scale.Report.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var body simulateBody
	if err := decodeJSON(r, &body); err != nil {
		httpapi.WriteError(w, badBody(err))
		return
	}
	report, err := s.cfg.Sim.SimulateOn(body.Accel, body.Model, body.Dataset)
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	resp := simulateResponse{Report: report}
	if s.cfg.ShardPool != nil {
		if est, err := s.shardEstimate(body.Dataset, report.Cycles); err == nil {
			resp.Sharding = est
		}
		// Estimate failures (e.g. a dataset with no generator) degrade to
		// the plain report rather than failing the simulate call.
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// shardEstimate partitions the dataset's generated graph at the pool's shard
// count and costs the halo exchange against the simulated single-device
// cycle count. Feature rows move at fp32 width — the sharded data plane
// exchanges float32 activations in both precision tiers. The plan depends
// only on the dataset (the pool's part count is fixed), so each dataset is
// built and partitioned once per server.
func (s *Server) shardEstimate(dataset string, cycles int64) (*shard.CommEstimate, error) {
	d, err := graph.ByName(dataset)
	if err != nil {
		return nil, err
	}
	plan, err := s.plans.Get(d.Name, func() (*shard.Plan, error) {
		return shard.PartitionGraph(d.Build(), s.cfg.ShardPool.Parts())
	})
	if err != nil {
		return nil, err
	}
	return shard.EstimateComm(plan, d.FeatureDims, 4, s.cfg.ShardPool.Topology(), cycles)
}

// handleHealthz answers 200 while serving and 503 while draining, so load
// balancers stop routing before shutdown completes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	resp := healthResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Sessions:      s.LiveSessions(),
		QueueInUse:    s.queue.inUse(),
		QueueDepth:    s.queue.depth(),
	}
	if s.cfg.ShardPool != nil {
		live := s.cfg.ShardPool.LiveWorkers()
		degraded := s.cfg.ShardPool.Degraded()
		resp.ShardWorkersLive = &live
		resp.Degraded = &degraded
		if degraded {
			// Still 200: the node serves every request via the local
			// fallback; load balancers should keep routing here.
			status = "degraded"
		}
	}
	if s.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	resp.Status = status
	httpapi.WriteJSON(w, code, resp)
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.render(w, s.sessions)
	if s.cfg.Dynamic != nil {
		writeDynMetrics(w, s.cfg.Dynamic.Stats())
	}
	if s.cfg.ShardPool != nil {
		degraded := 0
		if s.cfg.ShardPool.Degraded() {
			degraded = 1
		}
		httpapi.Gauge(w, "scale_serve_degraded", "Whether the shard pool has no live workers and infers run on the local fallback.", degraded)
		s.cfg.ShardPool.WritePrometheus(w)
	}
}
