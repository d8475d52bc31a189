package serve

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scale/internal/httpapi"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning the
// sub-millisecond cached-session hits through multi-second Reddit-scale
// batched forwards.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram. Observations and rendering
// are lock-free; the +Inf bucket lives at counts[len(bounds)].
type histogram struct {
	counts  []atomic.Int64
	sumNs   atomic.Int64
	samples atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, s)
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	h.samples.Add(1)
}

// Metrics holds the server's counters. All fields are safe for concurrent
// use; /metrics renders them in Prometheus text exposition format with
// deterministic ordering.
type Metrics struct {
	mu       sync.Mutex
	requests map[string]*atomic.Int64 // "endpoint|code" → count
	latency  map[string]*histogram    // endpoint → latency histogram

	// Batches counts executed micro-batches; BatchedRequests counts the
	// requests they carried (ratio = mean batch size).
	Batches         atomic.Int64
	BatchedRequests atomic.Int64
	// QueueRejections counts 429s from the bounded admission queue.
	QueueRejections atomic.Int64
	// DegradedRequests counts sharded-path requests served by the local
	// single-process fallback because the worker pool was unavailable.
	DegradedRequests atomic.Int64
	// PanicsContained counts backend panics isolated into 500s.
	PanicsContained atomic.Int64
	// SessionsCreated and SessionsEvicted track the session cache.
	SessionsCreated atomic.Int64
	SessionsEvicted atomic.Int64
	// MutationBatches / MutationOps count accepted /v1/mutate batches and
	// the individual deltas they carried; MutationsRejected counts every
	// batch refused on a dynamic server: a bad body, an unknown op, or a
	// batch the graph rejects.
	MutationBatches   atomic.Int64
	MutationOps       atomic.Int64
	MutationsRejected atomic.Int64
	// DynRequests counts infer requests served from the dynamic graph;
	// SampledRequests counts fixed-fanout sampled infers (either source).
	DynRequests     atomic.Int64
	SampledRequests atomic.Int64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests: make(map[string]*atomic.Int64),
		latency:  make(map[string]*histogram),
	}
}

// ObserveRequest records one finished request: its endpoint, the HTTP status
// sent, and the wall time spent serving it.
func (m *Metrics) ObserveRequest(endpoint string, code int, d time.Duration) {
	key := fmt.Sprintf("%s|%d", endpoint, code)
	m.mu.Lock()
	c, ok := m.requests[key]
	if !ok {
		c = new(atomic.Int64)
		m.requests[key] = c
	}
	h, ok := m.latency[endpoint]
	if !ok {
		h = newHistogram()
		m.latency[endpoint] = h
	}
	m.mu.Unlock()
	c.Add(1)
	h.observe(d)
}

// ObserveBatch records one executed micro-batch of n requests.
func (m *Metrics) ObserveBatch(n int) {
	m.Batches.Add(1)
	m.BatchedRequests.Add(int64(n))
}

// render writes the metrics, with the session cache's size and per-session
// precision gauges, in Prometheus text exposition format.
func (m *Metrics) render(w io.Writer, sessions *httpapi.Sessions[*batcher]) {
	m.mu.Lock()
	reqKeys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	latKeys := make([]string, 0, len(m.latency))
	for k := range m.latency {
		latKeys = append(latKeys, k)
	}
	m.mu.Unlock()
	sort.Strings(reqKeys)
	sort.Strings(latKeys)

	httpapi.Header(w, "scale_serve_requests_total", "counter", "Finished requests by endpoint and status code.")
	for _, k := range reqKeys {
		endpoint, code, _ := strings.Cut(k, "|")
		m.mu.Lock()
		v := m.requests[k].Load()
		m.mu.Unlock()
		fmt.Fprintf(w, "scale_serve_requests_total{endpoint=%q,code=%q} %d\n", endpoint, code, v)
	}

	httpapi.Counter(w, "scale_serve_batches_total", "Micro-batches executed.", m.Batches.Load())
	httpapi.Counter(w, "scale_serve_batch_requests_total", "Requests carried by micro-batches.", m.BatchedRequests.Load())
	httpapi.Counter(w, "scale_serve_queue_rejections_total", "Requests rejected by the admission queue (429).", m.QueueRejections.Load())
	httpapi.Counter(w, "scale_serve_degraded_requests_total", "Sharded-path requests served by the local single-process fallback.", m.DegradedRequests.Load())
	httpapi.Counter(w, "scale_serve_panics_contained_total", "Backend panics isolated into 500 responses.", m.PanicsContained.Load())
	httpapi.Counter(w, "scale_serve_sessions_created_total", "Sessions constructed by the cache.", m.SessionsCreated.Load())
	httpapi.Counter(w, "scale_serve_sessions_evicted_total", "Sessions evicted by the cache.", m.SessionsEvicted.Load())
	httpapi.Counter(w, "scale_serve_mutation_batches_total", "Accepted /v1/mutate batches.", m.MutationBatches.Load())
	httpapi.Counter(w, "scale_serve_mutation_ops_total", "Individual graph deltas applied via /v1/mutate.", m.MutationOps.Load())
	httpapi.Counter(w, "scale_serve_mutations_rejected_total", "Mutation batches refused (bad body, unknown op, or rejected by the graph).", m.MutationsRejected.Load())
	httpapi.Counter(w, "scale_serve_dyn_requests_total", "Infer requests served from the dynamic graph.", m.DynRequests.Load())
	httpapi.Counter(w, "scale_serve_sampled_requests_total", "Fixed-fanout sampled infer requests.", m.SampledRequests.Load())
	httpapi.Gauge(w, "scale_serve_sessions_live", "Sessions currently cached.", sessions.Len())

	// Per-session precision (internal/quant.Plan footprint semantics):
	// compression is bytes versus full float32, avg_bytes the average bytes
	// per weight element.
	httpapi.Header(w, "scale_serve_session_quant_compression", "gauge", "Weight-footprint ratio vs full float32 per cached session (1 = fp32, 0.25 = fully int8).")
	sessions.Each(func(key string, b *batcher) {
		c, _ := b.sess.PrecisionStats()
		fmt.Fprintf(w, "scale_serve_session_quant_compression{session=%q,precision=%q} %g\n", key, b.sess.Precision(), c)
	})
	httpapi.Header(w, "scale_serve_session_quant_avg_bytes", "gauge", "Average bytes per weight element per cached session.")
	sessions.Each(func(key string, b *batcher) {
		_, a := b.sess.PrecisionStats()
		fmt.Fprintf(w, "scale_serve_session_quant_avg_bytes{session=%q,precision=%q} %g\n", key, b.sess.Precision(), a)
	})

	httpapi.Header(w, "scale_serve_request_seconds", "histogram", "Request latency by endpoint.")
	for _, endpoint := range latKeys {
		m.mu.Lock()
		h := m.latency[endpoint]
		m.mu.Unlock()
		var cum int64
		for i, bound := range latencyBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "scale_serve_request_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", endpoint, bound, cum)
		}
		cum += h.counts[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "scale_serve_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", endpoint, cum)
		fmt.Fprintf(w, "scale_serve_request_seconds_sum{endpoint=%q} %g\n", endpoint, float64(h.sumNs.Load())/1e9)
		fmt.Fprintf(w, "scale_serve_request_seconds_count{endpoint=%q} %d\n", endpoint, h.samples.Load())
	}
}
