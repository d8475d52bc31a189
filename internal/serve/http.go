package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"scale"
	"scale/internal/dyn"
	"scale/internal/fault"
	"scale/internal/graph"
	"scale/internal/shard"
	"scale/internal/tensor"
)

// errDraining marks work refused because the server is shutting down.
var errDraining = errors.New("serve: draining")

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

// inferResponse is the POST /v1/infer success payload.
type inferResponse struct {
	Model      string      `json:"model"`
	Precision  string      `json:"precision"`
	Embeddings [][]float32 `json:"embeddings"`
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

// errorResponse is every non-2xx payload. Kind is a stable machine-readable
// classification: usage, bad_input, timeout, over_capacity, draining, panic,
// internal.
type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
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

// classify maps an error to its HTTP status and error kind, in precedence
// order: contained panics are 500 even when the panic value wraps an input
// sentinel, deadlines are 408, drain refusals 503, a mid-compaction
// dynamic graph 409 (retryable — the batch itself may be fine), input
// sentinels 400.
func classify(err error) (int, string) {
	if err == nil {
		return http.StatusOK, ""
	}
	if _, ok := fault.AsPanic(err); ok {
		return http.StatusInternalServerError, "panic"
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout, "timeout"
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, dyn.ErrCompacting):
		return http.StatusConflict, "compacting"
	case fault.IsInput(err):
		return http.StatusBadRequest, "bad_input"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}

func writeError(w http.ResponseWriter, code int, msg, kind string) {
	writeJSON(w, code, errorResponse{Error: msg, Kind: kind})
}

// writeMapped renders err through classify, attaching Retry-After to
// load-shedding (and mid-compaction) answers.
func (s *Server) writeMapped(w http.ResponseWriter, err error) {
	code, kind := classify(err)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable || code == http.StatusConflict {
		w.Header().Set("Retry-After", retrySeconds(s.cfg.RetryAfter))
	}
	writeError(w, code, err.Error(), kind)
}

func retrySeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// statusRecorder captures the status code a handler sent, for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// instrument wraps an endpoint with latency/status accounting and a panic
// barrier: a panic inside the handler itself (not just the backend) is
// contained into a 500 — the serving process never dies for one request.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		err := fault.Safely(func() error {
			h(rec, r)
			return nil
		})
		if err != nil {
			s.metrics.PanicsContained.Add(1)
			if !rec.wrote {
				rec.code = http.StatusInternalServerError
				writeError(rec, http.StatusInternalServerError, err.Error(), "panic")
			}
		}
		s.metrics.ObserveRequest(endpoint, rec.code, time.Since(start))
	}
}

// handleInfer serves POST /v1/infer: admission queue → session cache →
// micro-batcher → batched forward → per-request embeddings.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required", "usage")
		return
	}
	if !s.begin() {
		s.writeMapped(w, errDraining)
		return
	}
	defer s.end()
	if !s.queue.tryAcquire() {
		s.metrics.QueueRejections.Add(1)
		w.Header().Set("Retry-After", retrySeconds(s.cfg.RetryAfter))
		writeError(w, http.StatusTooManyRequests, "admission queue full", "over_capacity")
		return
	}
	defer s.queue.release()

	body, err := decodeInferBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON body: "+err.Error(), "bad_input")
		return
	}
	if body.NumVertices > s.cfg.MaxVertices {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("request has %d vertices, server caps at %d", body.NumVertices, s.cfg.MaxVertices),
			"bad_input")
		return
	}

	// Normalize the precision before the cache lookup so "", the server
	// default, and an explicit "fp32" all share one session. Unknown
	// values flow into NewSessionPrecision, whose typed error maps to 400.
	precision := body.Precision
	if precision == "" {
		precision = s.cfg.DefaultPrecision
	}
	if precision == "" {
		precision = "fp32"
	}
	// Dynamic-graph and sampled requests run directly: the dynamic vertex
	// set is the server's own, and per-request sampling seeds bind to
	// request-local vertex ids — disjoint-union micro-batching (which
	// shifts ids) and shard routing do not apply to either.
	if body.Graph == "dynamic" || body.SampleFanout > 0 {
		if body.Graph != "" && body.Graph != "dynamic" {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown graph source %q", body.Graph), "bad_input")
			return
		}
		s.handleInferDirect(w, r, body, precision)
		return
	}
	if body.Graph != "" {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown graph source %q", body.Graph), "bad_input")
		return
	}
	if s.cfg.ShardPool != nil && body.NumVertices >= s.cfg.ShardMinVertices {
		s.handleInferSharded(w, r, body, precision)
		return
	}
	s.inferLocal(w, r, body, precision)
}

// inferLocal serves one infer request on this process: session cache →
// micro-batcher → batched forward. It is the non-sharded path of
// handleInfer and the degraded-mode fallback of the sharded one.
func (s *Server) inferLocal(w http.ResponseWriter, r *http.Request, body inferBody, precision string) {
	entry, err := s.session(body.Model, body.Dims, precision)
	if err != nil {
		s.writeMapped(w, err)
		return
	}
	req := body.request()
	// Validate before batching: a malformed request earns its 400 here and
	// never poisons batch-mates.
	if err := entry.sess.Validate(req); err != nil {
		entry.refs.Done()
		s.writeMapped(w, err)
		return
	}
	ctx := r.Context()
	cancel := func() {}
	if body.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(body.TimeoutMS)*time.Millisecond)
	}
	defer cancel()

	p := &pending{req: req, ctx: ctx, done: make(chan batchResult, 1)}
	entry.b.submit(p)
	entry.refs.Done()

	select {
	case res := <-p.done:
		if res.err != nil {
			s.writeMapped(w, res.err)
			return
		}
		writeJSON(w, http.StatusOK, inferResponse{Model: entry.sess.Model(), Precision: entry.sess.Precision(), Embeddings: res.rows})
	case <-ctx.Done():
		s.writeMapped(w, ctx.Err())
	}
}

// handleInferSharded serves an infer request over the shard worker tier:
// the graph is materialized, partitioned, and fanned across the pool's
// workers layer by layer. The response shape is exactly handleInfer's local
// path — at fp32 the two are byte-identical (TestShardedServingGolden) —
// and the front tier in the healthy case never builds a model: weights live
// only on workers.
//
// Degraded mode: when the pool has no live workers (every breaker open), or
// the pass fails for an infrastructure reason retrying cannot fix here, the
// request falls back to local single-process inference instead of failing —
// fp32 answers are bit-identical either way, so the client only sees the
// difference in /healthz and the scale_serve_degraded gauge.
func (s *Server) handleInferSharded(w http.ResponseWriter, r *http.Request, body inferBody, precision string) {
	if err := validateCarried(&body); err != nil {
		s.writeMapped(w, err)
		return
	}
	if s.cfg.ShardPool.Degraded() {
		s.serveDegraded(w, r, body, precision)
		return
	}
	b := graph.NewBuilder(body.NumVertices)
	for _, e := range body.Edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build("user")
	x := tensor.NewMatrix(body.NumVertices, body.Dims[0])
	for v, row := range body.Features {
		copy(x.Row(v), row)
	}

	ctx := r.Context()
	cancel := func() {}
	if body.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(body.TimeoutMS)*time.Millisecond)
	}
	defer cancel()

	out, _, err := s.cfg.ShardPool.Run(ctx, shard.SessionSpec{Model: body.Model, Dims: body.Dims, Precision: precision}, g, x)
	if err != nil {
		if fallbackEligible(err) {
			s.serveDegraded(w, r, body, precision)
			return
		}
		s.writeMapped(w, err)
		return
	}
	rows := make([][]float32, out.Rows)
	for v := range rows {
		rows[v] = out.Row(v)
	}
	writeJSON(w, http.StatusOK, inferResponse{Model: body.Model, Precision: precision, Embeddings: rows})
}

// serveDegraded answers one sharded-path request on the local session cache.
func (s *Server) serveDegraded(w http.ResponseWriter, r *http.Request, body inferBody, precision string) {
	s.metrics.DegradedRequests.Add(1)
	s.inferLocal(w, r, body, precision)
}

// fallbackEligible decides whether a failed sharded pass may be retried
// locally: infrastructure failures (workers unreachable, every candidate
// exhausted) are; the caller's own problems are not — bad input must keep
// its 400, a spent deadline its 408, and a contained panic its 500 (the
// panic would likely reproduce locally).
func fallbackEligible(err error) bool {
	if err == nil {
		return false
	}
	if _, ok := fault.AsPanic(err); ok {
		return false
	}
	if fault.IsInput(err) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	return true
}

// validateCarried checks a request-carried graph on the paths that have no
// local session to ask (sharded and sampled). Only the dims chain is checked
// here; the rest is the same scale.InferRequest.Validate the local path's
// session runs, so every path answers identical 400s.
func validateCarried(body *inferBody) error {
	if len(body.Dims) < 2 {
		return fmt.Errorf("scale: dims chain has %d entries, need ≥2: %w", len(body.Dims), fault.ErrBadConfig)
	}
	return body.request().Validate(body.Dims[0])
}

// handleSimulate serves POST /v1/simulate: one timing-model run of (model,
// dataset) on the shared simulator, reported as a scale.Report.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required", "usage")
		return
	}
	if !s.begin() {
		s.writeMapped(w, errDraining)
		return
	}
	defer s.end()
	if !s.queue.tryAcquire() {
		s.metrics.QueueRejections.Add(1)
		w.Header().Set("Retry-After", retrySeconds(s.cfg.RetryAfter))
		writeError(w, http.StatusTooManyRequests, "admission queue full", "over_capacity")
		return
	}
	defer s.queue.release()

	var body simulateBody
	if err := decodeJSON(r, &body); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON body: "+err.Error(), "bad_input")
		return
	}
	report, err := s.cfg.Sim.SimulateOn(body.Accel, body.Model, body.Dataset)
	if err != nil {
		s.writeMapped(w, err)
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
	writeJSON(w, http.StatusOK, resp)
}

// shardEstimate partitions the dataset's generated graph at the pool's shard
// count and costs the halo exchange against the simulated single-device
// cycle count. Feature rows move at fp32 width — the sharded data plane
// exchanges float32 activations in both precision tiers.
func (s *Server) shardEstimate(dataset string, cycles int64) (*shard.CommEstimate, error) {
	d, err := graph.ByName(dataset)
	if err != nil {
		return nil, err
	}
	plan, err := shard.PartitionGraph(d.Build(), s.cfg.ShardPool.Parts())
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
	writeJSON(w, code, resp)
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.Render(w, s.LiveSessions())
	if s.cfg.Dynamic != nil {
		writeDynMetrics(w, s.cfg.Dynamic.Stats())
	}
	if s.cfg.ShardPool != nil {
		degraded := 0
		if s.cfg.ShardPool.Degraded() {
			degraded = 1
		}
		fmt.Fprintf(w, "# HELP scale_serve_degraded Whether the shard pool has no live workers and infers run on the local fallback.\n# TYPE scale_serve_degraded gauge\nscale_serve_degraded %d\n", degraded)
		s.cfg.ShardPool.WritePrometheus(w)
	}
}
