package shard

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scale"
	"scale/internal/fault"
	"scale/internal/graph"
	"scale/internal/httpapi"
	"scale/internal/tensor"
)

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
	SessionsCreated atomic.Int64
	SessionsEvicted atomic.Int64
}

// Worker is one shard server: it holds scale.Sessions and in-flight shard
// runs, and advances a run one model layer per /v1/shard/layer call. The
// front tier (Pool) owns partitioning and halo routing; the worker only ever
// sees local CSRs. Its HTTP edge — status contract, gate, session cache — is
// internal/httpapi's, as the front's is, and so is its drain contract:
// BeginDrain → http.Server.Shutdown → Close.
type Worker struct {
	cfg      WorkerConfig
	mux      *http.ServeMux
	metrics  *WorkerMetrics
	start    time.Time
	gate     httpapi.Gate
	sessions *httpapi.Sessions[*scale.Session]

	mu   sync.Mutex
	runs map[uint64]*run
}

// NewWorker builds a Worker around cfg.Sim.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	m := &WorkerMetrics{}
	w := &Worker{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		metrics:  m,
		start:    time.Now(),
		gate:     httpapi.Gate{Panics: &m.PanicsContained},
		sessions: httpapi.NewSessions(cfg.MaxSessions, cfg.Sim.NewSessionPrecision, &m.SessionsCreated, &m.SessionsEvicted),
		runs:     make(map[uint64]*run),
	}
	gated := func(h http.HandlerFunc) http.HandlerFunc {
		return func(rw http.ResponseWriter, r *http.Request) { w.gate.Serve(rw, r, h) }
	}
	w.mux.HandleFunc("/v1/shard/load", gated(w.handleLoad))
	w.mux.HandleFunc("/v1/shard/layer", gated(w.handleLayer))
	w.mux.HandleFunc("/v1/shard/finish", gated(w.handleFinish))
	w.mux.HandleFunc("/healthz", w.handleHealthz)
	w.mux.HandleFunc("/metrics", w.handleMetrics)
	return w
}

// Handler returns the worker's HTTP handler.
func (w *Worker) Handler() http.Handler { return w.mux }

// BeginDrain stops admitting new work: /healthz flips to 503 so the front
// tier's health checks route around this worker, and data-plane calls answer
// 503 + Retry-After. In-flight calls finish. Idempotent.
func (w *Worker) BeginDrain() { w.gate.BeginDrain() }

// Draining reports whether BeginDrain has been called.
func (w *Worker) Draining() bool { return w.gate.Draining() }

// Close completes the drain: waits for in-flight handlers and drops all runs.
func (w *Worker) Close() {
	w.gate.Drain()
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

// readFrame buffers one data-plane request body, presized from its
// Content-Length. A body cut short is a truncated frame, as the decoder
// would call it.
func readFrame(r *http.Request) ([]byte, error) {
	frame, err := httpapi.ReadBody(r.Body, r.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("shard: truncated frame: %v: %w", err, fault.ErrBadGraph)
	}
	return frame, nil
}

// handleLoad serves POST /v1/shard/load: decode the frame, adopt its CSR and
// feature rows as the run's graph and matrix, build (or hit the cache for)
// the session, and register the run at its starting layer.
func (w *Worker) handleLoad(rw http.ResponseWriter, r *http.Request) {
	frame, err := readFrame(r)
	if err != nil {
		httpapi.WriteError(rw, err)
		return
	}
	q, err := DecodeLoad(frame)
	if err != nil {
		httpapi.WriteError(rw, err)
		return
	}
	if err := validateLoad(q); err != nil {
		httpapi.WriteError(rw, err)
		return
	}
	// FromCSR checks the CSR itself (row pointers from 0, monotone, ending
	// at len(ColIdx); columns in range; rows sorted) before any session
	// exists, and the run adopts the frame's slices without copying them.
	g, err := graph.FromCSR(fmt.Sprintf("shardrun-%d", q.ReqID), q.RowPtr, q.ColIdx)
	if err != nil {
		httpapi.WriteError(rw, err)
		return
	}
	dims := make([]int, len(q.Dims))
	for i, d := range q.Dims {
		dims[i] = int(d)
	}
	sess, err := w.sessions.Get(q.Model, dims, q.Precision)
	if err != nil {
		httpapi.WriteError(rw, err)
		return
	}
	ru := &run{
		sess:    sess,
		g:       g,
		degrees: q.Degrees,
		owned:   q.Owned,
		h:       &tensor.Matrix{Rows: g.NumVertices(), Cols: dims[q.Layer], Data: q.Features},
		next:    q.Layer,
	}
	ru.touched.Store(time.Now().UnixNano())

	w.mu.Lock()
	w.expireLocked(time.Now())
	if len(w.runs) >= w.cfg.MaxRuns {
		w.mu.Unlock()
		w.metrics.Rejections.Add(1)
		httpapi.WriteError(rw, fmt.Errorf("shard: run table full (%d runs): %w", w.cfg.MaxRuns, httpapi.ErrOverCapacity))
		return
	}
	w.runs[q.ReqID] = ru // reload after failover overwrites the stale run
	w.mu.Unlock()
	w.metrics.Loads.Add(1)
	rw.WriteHeader(http.StatusNoContent)
}

// validateLoad checks a decoded load frame's internal consistency, apart
// from its CSR, with typed input errors: the wire layer only guarantees
// well-formed framing.
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
	frame, err := readFrame(r)
	if err != nil {
		httpapi.WriteError(rw, err)
		return
	}
	q, err := DecodeLayer(frame)
	if err != nil {
		httpapi.WriteError(rw, err)
		return
	}
	w.mu.Lock()
	ru, ok := w.runs[q.ReqID]
	w.mu.Unlock()
	if !ok {
		// Distinct kind: the front tier treats a missing run (worker
		// restarted, run expired) as grounds for a reload, not a client bug.
		httpapi.WriteError(rw, fmt.Errorf("shard: run %d: %w", q.ReqID, httpapi.ErrNoRun))
		return
	}

	ru.mu.Lock()
	defer ru.mu.Unlock()
	ru.touched.Store(time.Now().UnixNano())
	if q.Layer != ru.next {
		httpapi.WriteError(rw, fmt.Errorf("shard: run %d expects layer %d, got %d: %w", q.ReqID, ru.next, q.Layer, fault.ErrBadConfig))
		return
	}
	if len(q.HaloIDs) > 0 {
		if int(q.Cols) != ru.h.Cols {
			httpapi.WriteError(rw, fmt.Errorf("shard: halo rows are %d wide, state is %d: %w", q.Cols, ru.h.Cols, fault.ErrBadShape))
			return
		}
		for i, lid := range q.HaloIDs {
			if lid < 0 || int(lid) >= ru.h.Rows {
				httpapi.WriteError(rw, fmt.Errorf("shard: halo id %d outside [0, %d): %w", lid, ru.h.Rows, fault.ErrBadGraph))
				return
			}
			copy(ru.h.Row(int(lid)), q.HaloRows[i*int(q.Cols):(i+1)*int(q.Cols)])
		}
		w.metrics.HaloRowsMerged.Add(int64(len(q.HaloIDs)))
	}

	out, err := ru.sess.ForwardLayerCSR(r.Context(), int(q.Layer), ru.g, ru.h, ru.degrees, w.cfg.ForwardWorkers)
	if err != nil {
		httpapi.WriteError(rw, err)
		return
	}
	ru.h = out
	ru.next = q.Layer + 1
	w.metrics.Layers.Add(1)

	resp := LayerResponse{Cols: int32(out.Cols), Rows: make([]float32, 0, len(ru.owned)*out.Cols)}
	for _, lid := range ru.owned {
		resp.Rows = append(resp.Rows, out.Row(int(lid))...)
	}
	body := resp.Encode()
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Length", strconv.Itoa(len(body)))
	// A failed write means the front is gone or sees a truncated frame and
	// fails over; the status line is sent, so there is nothing to answer.
	_, _ = rw.Write(body)
}

// handleFinish serves POST /v1/shard/finish?req=<id>: drop the run. Finish is
// best-effort bookkeeping — RunTTL reclaims runs whose finish never arrives.
func (w *Worker) handleFinish(rw http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.URL.Query().Get("req"), 10, 64)
	if err != nil {
		httpapi.WriteError(rw, fmt.Errorf("shard: bad req id %q: %w", r.URL.Query().Get("req"), fault.ErrBadConfig))
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
	httpapi.WriteJSON(rw, code, workerHealth{
		Status:        status,
		UptimeSeconds: time.Since(w.start).Seconds(),
		Runs:          w.LiveRuns(),
		MaxRuns:       w.cfg.MaxRuns,
		Sessions:      w.sessions.Len(),
	})
}

func (w *Worker) handleMetrics(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
	m := w.metrics
	httpapi.Counter(rw, "scale_shard_loads_total", "Shard loads accepted.", m.Loads.Load())
	httpapi.Counter(rw, "scale_shard_layers_total", "Layer calls served.", m.Layers.Load())
	httpapi.Counter(rw, "scale_shard_finishes_total", "Runs dropped by a finish call.", m.Finishes.Load())
	httpapi.Counter(rw, "scale_shard_halo_rows_merged_total", "Halo rows merged into runs before a layer.", m.HaloRowsMerged.Load())
	httpapi.Counter(rw, "scale_shard_runs_expired_total", "Runs dropped after RunTTL without a call.", m.RunsExpired.Load())
	httpapi.Counter(rw, "scale_shard_rejections_total", "Loads refused because the run table was full (429).", m.Rejections.Load())
	httpapi.Counter(rw, "scale_shard_panics_contained_total", "Handler panics isolated into 500 responses.", m.PanicsContained.Load())
	httpapi.Counter(rw, "scale_shard_sessions_created_total", "Sessions constructed by the cache.", m.SessionsCreated.Load())
	httpapi.Counter(rw, "scale_shard_sessions_evicted_total", "Sessions evicted by the cache.", m.SessionsEvicted.Load())
	httpapi.Gauge(rw, "scale_shard_runs", "Shard runs currently loaded.", w.LiveRuns())
}
