// Package serve is the production inference front door of the SCALE
// reproduction: a stdlib-only net/http JSON API that exposes the simulator
// (/v1/simulate) and the functional inference engine (/v1/infer) as a
// long-lived service.
//
// Three mechanisms make it survive sustained traffic (DESIGN.md §4h):
//
//   - A session cache keyed on (model, dims): each scale.Session — the
//     gnn.Model, its lazily materialized weights, and the accelerator's
//     pooled forward scratch — is constructed once and reused across
//     requests, bounded by MaxSessions with LRU eviction.
//   - A dynamic micro-batcher per session: concurrent infer requests
//     coalesce into single batched forward calls under a latency budget
//     (BatchWindow / MaxBatch), with results bit-identical to serial
//     execution (scale.Session.InferBatch's disjoint-union guarantee).
//   - A bounded admission queue: when QueueDepth requests are in flight the
//     server sheds load with 429 + Retry-After instead of queueing
//     unboundedly. Per-request deadlines map to context cancellation
//     through core.ForwardContext; fault sentinels map to 400s; contained
//     panics map to 500s without crashing the process.
//
// Shutdown is a graceful drain: BeginDrain stops admitting (503), in-flight
// requests finish through http.Server.Shutdown, then Close retires the
// batcher goroutines.
package serve

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scale"
	"scale/internal/dyn"
	"scale/internal/shard"
)

// Config parameterizes a Server. The zero value of every field selects a
// production-reasonable default; only Sim is required.
type Config struct {
	// Sim is the shared simulator; its accelerator model and forward-state
	// pool back every session. Required.
	Sim *scale.Simulator
	// BatchWindow is how long the micro-batcher holds a batch open for
	// late joiners (default 2ms; 0 coalesces only already-queued requests).
	BatchWindow time.Duration
	// MaxBatch caps requests coalesced into one forward call (default 16;
	// 1 disables micro-batching).
	MaxBatch int
	// QueueDepth bounds concurrently admitted requests (default 64).
	QueueDepth int
	// MaxSessions bounds the session cache (default 8, LRU eviction).
	MaxSessions int
	// MaxVertices caps a single infer request's vertex count (default
	// 1<<20) so one request cannot exhaust server memory.
	MaxVertices int
	// RetryAfter is the Retry-After hint on 429/503 answers (default 1s).
	RetryAfter time.Duration
	// DefaultPrecision is the execution precision applied to infer
	// requests that do not carry a "precision" field: "" or "fp32" (the
	// default float32 tier) or "int8" (quantized). Requests can always
	// override it per call.
	DefaultPrecision string
	// Backend overrides batch execution (tests inject faults); the default
	// is (*scale.Session).InferBatch.
	Backend Backend
	// ShardPool, when set, routes infer requests with at least
	// ShardMinVertices vertices to the sharded worker tier (internal/shard)
	// instead of the local micro-batcher, and decorates /v1/simulate with
	// the NoC-costed cross-shard communication estimate. fp32 sharded
	// results are bit-identical to local serving.
	ShardPool *shard.Pool
	// ShardMinVertices is the smallest request the sharded path takes
	// (default 1 — everything — when ShardPool is set). Small graphs cost
	// more in halo round-trips than they gain in parallelism; raising the
	// floor keeps them on the local micro-batcher.
	ShardMinVertices int
	// Dynamic, when set, is the server's mutable graph: POST /v1/mutate
	// applies batched deltas to it, and infer requests with
	// "graph":"dynamic" run against its current snapshot instead of
	// carrying their own edges/features. /metrics gains the graph's shape,
	// mutation and compaction series.
	Dynamic *dyn.Graph
	// SampleWorkers bounds row-level parallelism on the direct inference
	// path (dynamic-graph and sampled requests, which bypass the
	// micro-batcher; 0 = all cores). fp32 results are bit-identical for
	// every value — the determinism tests sweep it.
	SampleWorkers int
}

func (c Config) withDefaults() Config {
	if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 16
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 8
	}
	if c.MaxVertices == 0 {
		c.MaxVertices = 1 << 20
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.Backend == nil {
		c.Backend = func(ctx context.Context, sess *scale.Session, reqs []scale.InferRequest) ([][][]float32, error) {
			return sess.InferBatch(ctx, reqs)
		}
	}
	if c.ShardPool != nil && c.ShardMinVertices == 0 {
		c.ShardMinVertices = 1
	}
	return c
}

// sessionEntry is one cached session plus its batcher. refs counts handlers
// currently submitting into the batcher: eviction removes the entry from the
// map (no new refs) and only closes the batcher after refs drain, so a send
// never races a close.
type sessionEntry struct {
	key     string
	sess    *scale.Session
	b       *batcher
	refs    sync.WaitGroup
	lastUse atomic.Int64
}

// Server is the HTTP service. Construct with New, mount Handler on an
// http.Server, and on shutdown call BeginDrain, then http.Server.Shutdown,
// then Close.
type Server struct {
	cfg     Config
	metrics *Metrics
	queue   *queue
	mux     *http.ServeMux
	start   time.Time
	useSeq  atomic.Int64

	mu       sync.Mutex
	sessions map[string]*sessionEntry
	draining bool
	closed   bool
	handlers sync.WaitGroup
	batchers sync.WaitGroup
}

// New builds a Server around cfg.Sim.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg.withDefaults(),
		metrics:  NewMetrics(),
		start:    time.Now(),
		sessions: make(map[string]*sessionEntry),
	}
	s.queue = newQueue(s.cfg.QueueDepth)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/infer", s.admit("infer", s.handleInfer))
	s.mux.HandleFunc("/v1/mutate", s.admit("mutate", s.handleMutate))
	s.mux.HandleFunc("/v1/simulate", s.admit("simulate", s.handleSimulate))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's counters (tests, ops hooks).
func (s *Server) Metrics() *Metrics { return s.metrics }

// begin admits one handler unless the server is draining. It pairs with end;
// taking the ref under mu orders every Add before Close's Wait.
func (s *Server) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.handlers.Add(1)
	return true
}

func (s *Server) end() { s.handlers.Done() }

// BeginDrain flips the server into drain mode: /healthz answers 503 (load
// balancers stop routing here) and new API requests are refused with 503 +
// Retry-After. Requests already admitted run to completion. Idempotent.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close completes the drain: it waits for in-flight handlers, then retires
// every batcher goroutine. Call after http.Server.Shutdown has returned (no
// new connections). Idempotent.
func (s *Server) Close() {
	s.BeginDrain()
	s.handlers.Wait()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	entries := make([]*sessionEntry, 0, len(s.sessions))
	for k, e := range s.sessions {
		entries = append(entries, e)
		delete(s.sessions, k)
		s.metrics.DeleteSessionPrecision(k)
	}
	s.mu.Unlock()
	for _, e := range entries {
		close(e.b.quit)
	}
	s.batchers.Wait()
}

// LiveSessions reports the number of cached sessions.
func (s *Server) LiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// session returns the cached entry for (model, dims, precision),
// constructing it (and evicting the least-recently-used entry if the cache
// is full) on miss. On success the entry holds one ref for the caller, who
// must release it with entry.refs.Done() once its submit has completed.
func (s *Server) session(model string, dims []int, precision string) (*sessionEntry, error) {
	key := sessionKey(model, dims, precision)
	s.mu.Lock()
	if e, ok := s.sessions[key]; ok {
		e.lastUse.Store(s.useSeq.Add(1))
		e.refs.Add(1)
		s.mu.Unlock()
		return e, nil
	}
	s.mu.Unlock()

	// Build outside the lock: model construction (and, for int8 sessions,
	// one-time weight quantization) does real work and must not serialize
	// unrelated traffic. A racing duplicate build is benign — sessions are
	// deterministic — and the map insert below deduplicates.
	sess, err := s.cfg.Sim.NewSessionPrecision(model, dims, precision)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if e, ok := s.sessions[key]; ok {
		e.lastUse.Store(s.useSeq.Add(1))
		e.refs.Add(1)
		s.mu.Unlock()
		return e, nil
	}
	if s.closed {
		s.mu.Unlock()
		return nil, errDraining
	}
	for len(s.sessions) >= s.cfg.MaxSessions {
		s.evictLocked()
	}
	e := &sessionEntry{
		key:  key,
		sess: sess,
		b:    newBatcher(sess, s.cfg.Backend, s.cfg.BatchWindow, s.cfg.MaxBatch, s.cfg.QueueDepth, s.metrics),
	}
	e.lastUse.Store(s.useSeq.Add(1))
	e.refs.Add(1)
	s.sessions[key] = e
	s.metrics.SessionsCreated.Add(1)
	compression, avgBytes := sess.PrecisionStats()
	s.metrics.SetSessionPrecision(key, sess.Precision(), compression, avgBytes)
	s.batchers.Add(1)
	go func() {
		defer s.batchers.Done()
		e.b.loop()
	}()
	s.mu.Unlock()
	return e, nil
}

// evictLocked removes the least-recently-used session. The batcher is only
// quit after in-flight refs drain; it then drains its queue and exits, so
// requests that raced the eviction still complete.
func (s *Server) evictLocked() {
	var victim *sessionEntry
	for _, e := range s.sessions {
		if victim == nil || e.lastUse.Load() < victim.lastUse.Load() {
			victim = e
		}
	}
	if victim == nil {
		return
	}
	delete(s.sessions, victim.key)
	s.metrics.SessionsEvicted.Add(1)
	s.metrics.DeleteSessionPrecision(victim.key)
	go func() {
		victim.refs.Wait()
		close(victim.b.quit)
	}()
}

// sessionKey renders the cache key. handleInfer normalizes the precision
// (request field, then Config.DefaultPrecision, then "fp32") before lookup,
// so "" never reaches the key and equivalent requests share one session.
func sessionKey(model string, dims []int, precision string) string {
	key := model
	for _, d := range dims {
		key += "/" + strconv.Itoa(d)
	}
	return key + "/" + precision
}
