// Package serve is the production inference front door of the SCALE
// reproduction: a stdlib-only net/http JSON API that exposes the simulator
// (/v1/simulate) and the functional inference engine (/v1/infer) as a
// long-lived service (DESIGN.md §4h).
//
//   - Sessions are cached by (model, dims, precision) in an LRU of
//     MaxSessions: each scale.Session's model, lazily built weights and
//     pooled forward scratch are built once per key and reused.
//   - Each cached session has a micro-batcher: concurrent infer requests
//     coalesce into single forward calls under a latency budget
//     (BatchWindow / MaxBatch), bit-identical to serial execution. Its
//     goroutine runs only while requests are queued.
//   - A bounded admission queue sheds load with 429 + Retry-After once
//     QueueDepth requests are in flight.
//
// The HTTP edge — the error-to-status contract, the POST/drain gate with its
// panic barrier, the session cache — is internal/httpapi's, shared with the
// shard worker. Shutdown is a graceful drain: BeginDrain stops admitting
// (503), in-flight requests finish through http.Server.Shutdown, then Close
// waits for the handlers and the batcher loops.
package serve

import (
	"context"
	"net/http"
	"sync"
	"time"

	"scale"
	"scale/internal/dyn"
	"scale/internal/httpapi"
	"scale/internal/par"
	"scale/internal/shard"
)

// Config parameterizes a Server. The zero value of every field selects a
// production-reasonable default; only Sim is required.
type Config struct {
	// Sim is the shared simulator; its accelerator model and forward-state
	// pool back every session. Required.
	Sim *scale.Simulator
	// BatchWindow is how long the micro-batcher holds a batch open for
	// late joiners. 0 selects the default, 2ms; a negative window
	// coalesces only already-queued requests, without waiting.
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
	// "graph":"dynamic" run against its live graph instead of carrying
	// their own edges/features. /metrics gains the graph's shape and
	// mutation series.
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

// Server is the HTTP service. Construct with New, mount Handler on an
// http.Server, and on shutdown call BeginDrain, then http.Server.Shutdown,
// then Close.
type Server struct {
	cfg      Config
	metrics  *Metrics
	queue    *queue
	mux      *http.ServeMux
	start    time.Time
	gate     httpapi.Gate
	sessions *httpapi.Sessions[*batcher]
	// plans holds each dataset's shard plan for /v1/simulate estimates.
	plans par.Memo[string, *shard.Plan]
	// loops counts running batcher loops, evicted sessions' included.
	loops sync.WaitGroup
}

// New builds a Server around cfg.Sim.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	s := &Server{
		cfg:     cfg,
		metrics: m,
		queue:   newQueue(cfg.QueueDepth),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		gate:    httpapi.Gate{Panics: &m.PanicsContained},
	}
	s.sessions = httpapi.NewSessions(cfg.MaxSessions, s.newSession, &m.SessionsCreated, &m.SessionsEvicted)
	s.mux.HandleFunc("/v1/infer", s.admit("infer", s.handleInfer))
	s.mux.HandleFunc("/v1/mutate", s.admit("mutate", s.handleMutate))
	s.mux.HandleFunc("/v1/simulate", s.admit("simulate", s.handleSimulate))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// newSession builds the session for (model, dims, precision) and its
// micro-batcher, which starts no goroutine until a request arrives.
func (s *Server) newSession(model string, dims []int, precision string) (*batcher, error) {
	sess, err := s.cfg.Sim.NewSessionPrecision(model, dims, precision)
	if err != nil {
		return nil, err
	}
	b := newBatcher(sess, s.cfg.Backend, s.cfg.BatchWindow, s.cfg.MaxBatch, s.cfg.QueueDepth, s.metrics)
	b.loops = &s.loops
	return b, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's counters (tests, ops hooks).
func (s *Server) Metrics() *Metrics { return s.metrics }

// BeginDrain flips the server into drain mode: /healthz answers 503 (load
// balancers stop routing here) and new API requests are refused with 503 +
// Retry-After. Requests already admitted run to completion. Idempotent.
func (s *Server) BeginDrain() { s.gate.BeginDrain() }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.gate.Draining() }

// Close completes the drain: it waits for in-flight handlers, then for the
// batcher loops still answering requests their handlers abandoned, and
// empties the session cache. Call after http.Server.Shutdown has returned
// (no new connections). Idempotent.
func (s *Server) Close() {
	s.gate.Drain()
	s.loops.Wait()
	s.sessions.Clear()
}

// LiveSessions reports the number of cached sessions.
func (s *Server) LiveSessions() int { return s.sessions.Len() }
