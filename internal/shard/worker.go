package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scale"
	"scale/internal/fault"
	"scale/internal/graph"
	"scale/internal/tensor"
)

// errWorkerDraining marks work refused because the worker is shutting down.
var errWorkerDraining = errors.New("shard: worker draining")

// WorkerConfig parameterizes a Worker. Only Sim is required; zero values
// select production-reasonable defaults.
type WorkerConfig struct {
	// Sim backs every session the worker builds. Required.
	Sim *scale.Simulator
	// MaxRuns bounds concurrently loaded shard runs (default 64); overflow
	// answers 429 + Retry-After.
	MaxRuns int
	// MaxSessions bounds the session cache (default 8).
	MaxSessions int
	// RunTTL evicts runs whose front tier died mid-pass (default 2m): a
	// crashed front never finishes, so loads would otherwise leak matrices.
	RunTTL time.Duration
	// ForwardWorkers is the goroutine count per layer call (default 0 =
	// the accelerator's own sizing).
	ForwardWorkers int
	// RetryAfter is the Retry-After hint on 429/503 answers (default 1s).
	RetryAfter time.Duration
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.MaxRuns == 0 {
		c.MaxRuns = 64
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 8
	}
	if c.RunTTL == 0 {
		c.RunTTL = 2 * time.Minute
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// run is one loaded shard mid-pass: the subgraph, the global-degree table,
// and the feature matrix at the run's current layer boundary. Layer calls on
// one run serialize on mu; distinct runs execute concurrently.
type run struct {
	mu      sync.Mutex
	sess    *scale.Session
	g       *graph.Graph
	degrees []int32
	owned   []int32
	h       *tensor.Matrix
	next    int32 // next layer this run expects
	touched atomic.Int64
}

// WorkerMetrics are the worker's atomic counters, rendered on /metrics.
type WorkerMetrics struct {
	Loads           atomic.Int64
	Layers          atomic.Int64
	Finishes        atomic.Int64
	HaloRowsMerged  atomic.Int64
	RunsExpired     atomic.Int64
	Rejections      atomic.Int64
	PanicsContained atomic.Int64
}

// Worker is one shard server: it holds scale.Sessions and in-flight shard
// runs, and advances a run one model layer per /v1/shard/layer call. The
// front tier (Pool) owns partitioning and halo routing; the worker only ever
// sees local CSRs. Same drain contract as internal/serve: BeginDrain →
// http.Server.Shutdown → Close.
type Worker struct {
	cfg     WorkerConfig
	mux     *http.ServeMux
	metrics *WorkerMetrics
	start   time.Time

	mu       sync.Mutex
	sessions map[string]*scale.Session
	runs     map[uint64]*run
	draining bool
	handlers sync.WaitGroup
}

// NewWorker builds a Worker around cfg.Sim.
func NewWorker(cfg WorkerConfig) *Worker {
	w := &Worker{
		cfg:      cfg.withDefaults(),
		metrics:  &WorkerMetrics{},
		start:    time.Now(),
		sessions: make(map[string]*scale.Session),
		runs:     make(map[uint64]*run),
	}
	w.mux = http.NewServeMux()
	w.mux.HandleFunc("/v1/shard/load", w.guard(w.handleLoad))
	w.mux.HandleFunc("/v1/shard/layer", w.guard(w.handleLayer))
	w.mux.HandleFunc("/v1/shard/finish", w.guard(w.handleFinish))
	w.mux.HandleFunc("/healthz", w.handleHealthz)
	w.mux.HandleFunc("/metrics", w.handleMetrics)
	return w
}

// Handler returns the worker's HTTP handler.
func (w *Worker) Handler() http.Handler { return w.mux }

// Metrics exposes the worker's counters.
func (w *Worker) Metrics() *WorkerMetrics { return w.metrics }

// BeginDrain stops admitting new work: /healthz flips to 503 so the front
// tier's health checks route around this worker, and data-plane calls answer
// 503 + Retry-After. In-flight calls finish. Idempotent.
func (w *Worker) BeginDrain() {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (w *Worker) Draining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

// Close completes the drain: waits for in-flight handlers and drops all runs.
func (w *Worker) Close() {
	w.BeginDrain()
	w.handlers.Wait()
	w.mu.Lock()
	w.runs = make(map[uint64]*run)
	w.mu.Unlock()
}

// LiveRuns reports the number of loaded shard runs.
func (w *Worker) LiveRuns() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.runs)
}

// shardError is the JSON error payload, shape-compatible with
// internal/serve's errorResponse so one client-side classifier serves both
// tiers.
type shardError struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

func (w *Worker) writeError(rw http.ResponseWriter, code int, msg, kind string) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		secs := int(w.cfg.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		rw.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	_ = json.NewEncoder(rw).Encode(shardError{Error: msg, Kind: kind})
}

// writeMapped renders err with the serve tier's status mapping: contained
// panics 500, deadlines 408, drain 503, input sentinels 400.
func (w *Worker) writeMapped(rw http.ResponseWriter, err error) {
	if _, ok := fault.AsPanic(err); ok {
		w.writeError(rw, http.StatusInternalServerError, err.Error(), "panic")
		return
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		w.writeError(rw, http.StatusRequestTimeout, err.Error(), "timeout")
	case errors.Is(err, errWorkerDraining):
		w.writeError(rw, http.StatusServiceUnavailable, err.Error(), "draining")
	case fault.IsInput(err):
		w.writeError(rw, http.StatusBadRequest, err.Error(), "bad_input")
	default:
		w.writeError(rw, http.StatusInternalServerError, err.Error(), "internal")
	}
}

// guard wraps a data-plane endpoint with method/drain admission and a panic
// barrier — a panicking layer call answers 500, the worker process survives.
func (w *Worker) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.writeError(rw, http.StatusMethodNotAllowed, "POST required", "usage")
			return
		}
		w.mu.Lock()
		if w.draining {
			w.mu.Unlock()
			w.writeMapped(rw, errWorkerDraining)
			return
		}
		w.handlers.Add(1)
		w.mu.Unlock()
		defer w.handlers.Done()
		if err := fault.Safely(func() error { h(rw, r); return nil }); err != nil {
			w.metrics.PanicsContained.Add(1)
			w.writeMapped(rw, err)
		}
	}
}

// session returns the cached session for (model, dims, precision). Unlike
// the front tier the worker has no batcher per session, so the cache is a
// plain bounded map; sessions are deterministic, so evicting and rebuilding
// never changes results.
func (w *Worker) session(model string, dims []int, precision string) (*scale.Session, error) {
	key := model + "/" + precision
	for _, d := range dims {
		key += "/" + strconv.Itoa(d)
	}
	w.mu.Lock()
	if s, ok := w.sessions[key]; ok {
		w.mu.Unlock()
		return s, nil
	}
	w.mu.Unlock()
	s, err := w.cfg.Sim.NewSessionPrecision(model, dims, precision)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if cached, ok := w.sessions[key]; ok {
		return cached, nil
	}
	if len(w.sessions) >= w.cfg.MaxSessions {
		// Arbitrary-victim eviction: map iteration order. Good enough for a
		// worker that normally serves one or two session shapes.
		for k := range w.sessions {
			delete(w.sessions, k)
			break
		}
	}
	w.sessions[key] = s
	return s, nil
}

// expireLocked drops runs idle past RunTTL (front tier died mid-pass).
func (w *Worker) expireLocked(now time.Time) {
	cutoff := now.Add(-w.cfg.RunTTL).UnixNano()
	for id, r := range w.runs {
		if r.touched.Load() < cutoff {
			delete(w.runs, id)
			w.metrics.RunsExpired.Add(1)
		}
	}
}

// handleLoad serves POST /v1/shard/load: decode the subgraph, build (or hit
// the cache for) the session, materialize the feature matrix, and register
// the run at its starting layer.
func (w *Worker) handleLoad(rw http.ResponseWriter, r *http.Request) {
	q, err := DecodeLoad(r.Body)
	if err != nil {
		w.writeMapped(rw, err)
		return
	}
	if err := validateLoad(q); err != nil {
		w.writeMapped(rw, err)
		return
	}
	dims := make([]int, len(q.Dims))
	for i, d := range q.Dims {
		dims[i] = int(d)
	}
	sess, err := w.session(q.Model, dims, q.Precision)
	if err != nil {
		w.writeMapped(rw, err)
		return
	}
	n := q.NumVertices()
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for _, u := range q.ColIdx[q.RowPtr[v]:q.RowPtr[v+1]] {
			b.AddEdge(int(u), v)
		}
	}
	h := tensor.NewMatrix(n, dims[q.Layer])
	copy(h.Data, q.Features)

	ru := &run{
		sess:    sess,
		g:       b.Build(fmt.Sprintf("shardrun-%d", q.ReqID)),
		degrees: q.Degrees,
		owned:   q.Owned,
		h:       h,
		next:    q.Layer,
	}
	ru.touched.Store(time.Now().UnixNano())

	w.mu.Lock()
	w.expireLocked(time.Now())
	if len(w.runs) >= w.cfg.MaxRuns {
		w.mu.Unlock()
		w.metrics.Rejections.Add(1)
		w.writeError(rw, http.StatusTooManyRequests, "run table full", "over_capacity")
		return
	}
	w.runs[q.ReqID] = ru // reload after failover overwrites the stale run
	w.mu.Unlock()
	w.metrics.Loads.Add(1)
	rw.WriteHeader(http.StatusNoContent)
}

// validateLoad checks a decoded load frame's internal consistency with typed
// input errors: the wire layer only guarantees well-formed framing.
func validateLoad(q *LoadRequest) error {
	n := q.NumVertices()
	if n <= 0 {
		return fmt.Errorf("shard: load has no vertices: %w", fault.ErrBadGraph)
	}
	if err := ValidateDims(n, q.Dims); err != nil {
		return err
	}
	if q.Layer < 0 || int(q.Layer) >= len(q.Dims)-1 {
		return fmt.Errorf("shard: start layer %d outside [0, %d): %w", q.Layer, len(q.Dims)-1, fault.ErrBadConfig)
	}
	for v := 0; v < n; v++ {
		if q.RowPtr[v] > q.RowPtr[v+1] {
			return fmt.Errorf("shard: row pointer not monotone at %d: %w", v, fault.ErrBadGraph)
		}
	}
	if int(q.RowPtr[n]) != len(q.ColIdx) {
		return fmt.Errorf("shard: row pointer ends at %d, %d column indices: %w", q.RowPtr[n], len(q.ColIdx), fault.ErrBadGraph)
	}
	for i, u := range q.ColIdx {
		if u < 0 || int(u) >= n {
			return fmt.Errorf("shard: column index %d = %d outside [0, %d): %w", i, u, n, fault.ErrBadGraph)
		}
	}
	for _, o := range q.Owned {
		if o < 0 || int(o) >= n {
			return fmt.Errorf("shard: owned id %d outside [0, %d): %w", o, n, fault.ErrBadGraph)
		}
	}
	if len(q.Degrees) != n {
		return fmt.Errorf("shard: %d degrees for %d vertices: %w", len(q.Degrees), n, fault.ErrBadShape)
	}
	for v, d := range q.Degrees {
		if d < 0 {
			return fmt.Errorf("shard: vertex %d has degree %d: %w", v, d, fault.ErrBadGraph)
		}
	}
	if want := n * int(q.Dims[q.Layer]); len(q.Features) != want {
		return fmt.Errorf("shard: %d feature values, want %d: %w", len(q.Features), want, fault.ErrBadShape)
	}
	return nil
}

// handleLayer serves POST /v1/shard/layer: merge halo rows, run exactly one
// model layer over the local CSR, and return the owned output rows.
func (w *Worker) handleLayer(rw http.ResponseWriter, r *http.Request) {
	q, err := DecodeLayer(r.Body)
	if err != nil {
		w.writeMapped(rw, err)
		return
	}
	w.mu.Lock()
	ru, ok := w.runs[q.ReqID]
	w.mu.Unlock()
	if !ok {
		// Distinct kind: the front tier treats a missing run (worker
		// restarted, run expired) as grounds for a reload, not a client bug.
		w.writeError(rw, http.StatusNotFound, fmt.Sprintf("shard: run %d not loaded", q.ReqID), "no_run")
		return
	}

	ru.mu.Lock()
	defer ru.mu.Unlock()
	ru.touched.Store(time.Now().UnixNano())
	if q.Layer != ru.next {
		w.writeMapped(rw, fmt.Errorf("shard: run %d expects layer %d, got %d: %w", q.ReqID, ru.next, q.Layer, fault.ErrBadConfig))
		return
	}
	if len(q.HaloIDs) > 0 {
		if int(q.Cols) != ru.h.Cols {
			w.writeMapped(rw, fmt.Errorf("shard: halo rows are %d wide, state is %d: %w", q.Cols, ru.h.Cols, fault.ErrBadShape))
			return
		}
		for i, lid := range q.HaloIDs {
			if lid < 0 || int(lid) >= ru.h.Rows {
				w.writeMapped(rw, fmt.Errorf("shard: halo id %d outside [0, %d): %w", lid, ru.h.Rows, fault.ErrBadGraph))
				return
			}
			copy(ru.h.Row(int(lid)), q.HaloRows[i*int(q.Cols):(i+1)*int(q.Cols)])
		}
		w.metrics.HaloRowsMerged.Add(int64(len(q.HaloIDs)))
	}

	out, err := ru.sess.ForwardLayerCSR(r.Context(), int(q.Layer), ru.g, ru.h, ru.degrees, w.cfg.ForwardWorkers)
	if err != nil {
		w.writeMapped(rw, err)
		return
	}
	ru.h = out
	ru.next = q.Layer + 1
	w.metrics.Layers.Add(1)

	resp := LayerResponse{Cols: int32(out.Cols), Rows: make([]float32, 0, len(ru.owned)*out.Cols)}
	for _, lid := range ru.owned {
		resp.Rows = append(resp.Rows, out.Row(int(lid))...)
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	if err := resp.Encode(rw); err != nil {
		// Mid-body failure: the status line is gone; the client sees a
		// truncated frame and fails over. Nothing useful to write here.
		return
	}
}

// handleFinish serves POST /v1/shard/finish?req=<id>: drop the run. Finish is
// best-effort bookkeeping — RunTTL reclaims runs whose finish never arrives.
func (w *Worker) handleFinish(rw http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.URL.Query().Get("req"), 10, 64)
	if err != nil {
		w.writeMapped(rw, fmt.Errorf("shard: bad req id %q: %w", r.URL.Query().Get("req"), fault.ErrBadConfig))
		return
	}
	w.mu.Lock()
	_, ok := w.runs[id]
	delete(w.runs, id)
	w.expireLocked(time.Now())
	w.mu.Unlock()
	if ok {
		w.metrics.Finishes.Add(1)
	}
	rw.WriteHeader(http.StatusNoContent)
}

// workerHealth is the GET /healthz payload. MaxRuns rides along so the
// front tier's prober (and operators) can see headroom, not just liveness.
type workerHealth struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Runs          int     `json:"runs"`
	MaxRuns       int     `json:"max_runs"`
	Sessions      int     `json:"sessions"`
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if w.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	w.mu.Lock()
	runs, sessions := len(w.runs), len(w.sessions)
	w.mu.Unlock()
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	_ = json.NewEncoder(rw).Encode(workerHealth{
		Status:        status,
		UptimeSeconds: time.Since(w.start).Seconds(),
		Runs:          runs,
		MaxRuns:       w.cfg.MaxRuns,
		Sessions:      sessions,
	})
}

func (w *Worker) handleMetrics(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
	m := w.metrics
	fmt.Fprintf(rw, "# TYPE scale_shard_loads_total counter\nscale_shard_loads_total %d\n", m.Loads.Load())
	fmt.Fprintf(rw, "# TYPE scale_shard_layers_total counter\nscale_shard_layers_total %d\n", m.Layers.Load())
	fmt.Fprintf(rw, "# TYPE scale_shard_finishes_total counter\nscale_shard_finishes_total %d\n", m.Finishes.Load())
	fmt.Fprintf(rw, "# TYPE scale_shard_halo_rows_merged_total counter\nscale_shard_halo_rows_merged_total %d\n", m.HaloRowsMerged.Load())
	fmt.Fprintf(rw, "# TYPE scale_shard_runs_expired_total counter\nscale_shard_runs_expired_total %d\n", m.RunsExpired.Load())
	fmt.Fprintf(rw, "# TYPE scale_shard_rejections_total counter\nscale_shard_rejections_total %d\n", m.Rejections.Load())
	fmt.Fprintf(rw, "# TYPE scale_shard_panics_contained_total counter\nscale_shard_panics_contained_total %d\n", m.PanicsContained.Load())
	fmt.Fprintf(rw, "# TYPE scale_shard_runs gauge\nscale_shard_runs %d\n", w.LiveRuns())
}
