package shard

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scale/internal/fault"
	"scale/internal/graph"
	"scale/internal/httpapi"
	"scale/internal/noc"
	"scale/internal/tensor"
)

// SessionSpec names the (model, dims, precision) a sharded pass runs under.
// Every worker builds its session from the same deterministic seed, so all
// shards hold identical weights.
type SessionSpec struct {
	Model     string
	Dims      []int
	Precision string
}

// key is the spec's routing key: the session key of both tiers' caches.
func (s SessionSpec) key() string { return httpapi.SessionKey(s.Model, s.Dims, s.Precision) }

// PoolConfig parameterizes a Pool. Workers is required.
type PoolConfig struct {
	// Workers lists the shard worker addresses ("host:port" or full URLs).
	Workers []string
	// Parts is the shard count K per request (default len(Workers)).
	Parts int
	// Topology is the modeled inter-shard interconnect for cost estimates
	// (default noc.Ring).
	Topology noc.Kind
	// RequestTimeout caps each individual worker HTTP call (default 60s).
	// The per-call deadline is derived from the request context, so a
	// caller's own deadline (e.g. /v1/infer timeout_ms) always wins when it
	// is earlier — the budget spans the whole pass, not one call.
	RequestTimeout time.Duration
	// DownFor is the breaker cooldown: how long an open breaker refuses a
	// worker before admitting one half-open probe (default 1s).
	DownFor time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// worker's breaker open (default 3).
	BreakerThreshold int
	// ProbeInterval is the active health prober's per-sweep period,
	// jittered ±20% so a worker fleet is not hit in lockstep (default 2s).
	// The prober only runs after StartProber.
	ProbeInterval time.Duration
	// MaxRetries is how many times a worker's 429 is retried in place on
	// the same worker, httpapi.RetryAfter apart, before failing over
	// (default 3).
	MaxRetries int
	// Client overrides the HTTP client (tests). The pool never sets
	// Client.Timeout; deadlines come from the per-call context.
	Client *http.Client
}

// PoolMetrics are the front tier's sharding counters.
type PoolMetrics struct {
	Requests      atomic.Int64
	LayerCalls    atomic.Int64
	Failovers     atomic.Int64
	Reloads       atomic.Int64
	HaloBytesSent atomic.Int64
	// Retries counts in-place retries of 429 answers.
	Retries atomic.Int64
	// Probes counts active health probes sent.
	Probes atomic.Int64
}

// Pool is the front-tier client of the shard worker fleet. Each inference
// request is partitioned into K shards; shard s of a session routes to the
// first of rank(sessionKey#s, workers) — rendezvous hashing keeps a
// session's shards on the same workers across requests (warm session
// caches), and the rest of the ranking is the failover order when a worker
// is down. Between layers the pool gathers every shard's owned rows into the
// global feature matrix and redistributes halo rows, which also means it can
// reload a dead worker's shard onto the next candidate at the exact layer
// the pass has reached.
//
// Worker health is tracked by a per-worker circuit breaker (see Breaker)
// fed from two sides: every data-plane exchange, and — once StartProber is
// called — an active /healthz prober on a jittered interval. Candidates
// whose breaker is open are deprioritized, not removed: when every breaker
// is open the pool still tries, because trying beats refusing.
//
// A Pool is safe for concurrent use.
type Pool struct {
	cfg      PoolConfig
	client   *http.Client
	metrics  *PoolMetrics
	breakers map[string]*Breaker // immutable after NewPool; values are locked
	reqSeq   atomic.Uint64

	proberOnce sync.Once
	closeOnce  sync.Once
	proberStop chan struct{}
	proberDone chan struct{}
}

// NewPool builds a Pool over cfg.Workers. An empty worker list, an address
// with no host, and two addresses naming one base URL are typed config
// errors.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.Parts < 0 {
		return nil, fmt.Errorf("shard: negative shard count %d: %w", cfg.Parts, fault.ErrBadConfig)
	}
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("shard: pool needs at least one worker: %w", fault.ErrBadConfig)
	}
	normalized := make([]string, len(cfg.Workers))
	for i, a := range cfg.Workers {
		n := normalizeAddr(a)
		if u, err := url.Parse(n); err != nil || u.Host == "" {
			return nil, fmt.Errorf("shard: worker address %q has no valid host: %w", a, fault.ErrBadConfig)
		}
		if slices.Contains(normalized[:i], n) {
			return nil, fmt.Errorf("shard: worker %q listed twice: %w", a, fault.ErrBadConfig)
		}
		normalized[i] = n
	}
	cfg.Workers = normalized
	if cfg.Parts == 0 {
		cfg.Parts = len(cfg.Workers)
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	p := &Pool{
		cfg:        cfg,
		client:     client,
		metrics:    &PoolMetrics{},
		breakers:   make(map[string]*Breaker, len(cfg.Workers)),
		proberStop: make(chan struct{}),
		proberDone: make(chan struct{}),
	}
	for _, a := range cfg.Workers {
		p.breakers[a] = NewBreaker(cfg.BreakerThreshold, cfg.DownFor)
	}
	// Distinct pools must not collide on worker run ids.
	p.reqSeq.Store(uint64(time.Now().UnixNano()))
	return p, nil
}

// Parts returns the pool's shard count per request.
func (p *Pool) Parts() int { return p.cfg.Parts }

// Workers returns the normalized worker base URLs in the replica set.
func (p *Pool) Workers() []string { return append([]string(nil), p.cfg.Workers...) }

// Topology returns the modeled inter-shard interconnect.
func (p *Pool) Topology() noc.Kind { return p.cfg.Topology }

// Metrics exposes the pool's counters.
func (p *Pool) Metrics() *PoolMetrics { return p.metrics }

// LiveWorkers counts workers whose breaker is closed — workers the pool
// believes healthy right now. Half-open and open workers do not count even
// when eligible for a probe: liveness returns only on a confirmed success.
func (p *Pool) LiveWorkers() int {
	live := 0
	for _, b := range p.breakers {
		if b.State() == BreakerClosed {
			live++
		}
	}
	return live
}

// Degraded reports whether the pool has no live workers (every breaker is
// open or probing): the front tier should fall back to single-process
// serving rather than fan a pass into a fleet it believes dead.
func (p *Pool) Degraded() bool { return p.LiveWorkers() == 0 }

// StartProber launches the active health prober: every ProbeInterval
// (jittered ±20%) it GETs each worker's /healthz concurrently and feeds the
// result into that worker's breaker — so a dead worker is discovered, and a
// recovered one reinstated, without waiting for data-plane traffic to find
// out the hard way. Idempotent; stop it with Close.
func (p *Pool) StartProber() {
	p.proberOnce.Do(func() {
		go p.probeLoop()
	})
}

// Close stops the active prober, if running, and waits for it to exit.
// The pool itself remains usable (Run does not require the prober).
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.proberStop) })
	// If the prober never started, consume the once ourselves so proberDone
	// is closed (and a late StartProber becomes a no-op).
	p.proberOnce.Do(func() { close(p.proberDone) })
	<-p.proberDone
}

func (p *Pool) probeLoop() {
	defer close(p.proberDone)
	rng := rand.New(rand.NewSource(time.Now().UnixNano())) // jitter only; no correctness dependence
	for {
		// Jittered sleep: interval × [0.8, 1.2) so a multi-front deployment
		// does not probe the fleet in lockstep.
		d := time.Duration(float64(p.cfg.ProbeInterval) * (0.8 + 0.4*rng.Float64()))
		t := time.NewTimer(d)
		select {
		case <-p.proberStop:
			t.Stop()
			return
		case <-t.C:
		}
		var wg sync.WaitGroup
		for _, addr := range p.cfg.Workers {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				p.probe(addr)
			}(addr)
		}
		wg.Wait()
	}
}

// probeTimeout bounds one /healthz probe.
const probeTimeout = time.Second

// probe GETs one worker's /healthz and records the outcome in its breaker.
// Anything but a 200 — a refused connection, a timeout, a draining 503 —
// counts as a failure.
func (p *Pool) probe(addr string) {
	p.metrics.Probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		p.breakers[addr].Failure()
		return
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.breakers[addr].Failure()
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		p.breakers[addr].Success()
	} else {
		p.breakers[addr].Failure()
	}
}

// WritePrometheus renders the pool's sharding counters in Prometheus text
// exposition format; the front tier appends it to its /metrics page.
func (p *Pool) WritePrometheus(w io.Writer) {
	httpapi.Counter(w, "scale_shard_pool_requests_total", "Sharded inference passes started.", p.metrics.Requests.Load())
	httpapi.Counter(w, "scale_shard_pool_layer_calls_total", "Per-shard layer calls completed.", p.metrics.LayerCalls.Load())
	httpapi.Counter(w, "scale_shard_pool_failovers_total", "Worker failures routed around.", p.metrics.Failovers.Load())
	httpapi.Counter(w, "scale_shard_pool_reloads_total", "Shard reloads onto replacement workers.", p.metrics.Reloads.Load())
	httpapi.Counter(w, "scale_shard_pool_halo_bytes_total", "Halo row bytes redistributed between layers.", p.metrics.HaloBytesSent.Load())
	httpapi.Counter(w, "scale_shard_pool_retries_total", "In-place retries of worker 429 (over capacity) answers.", p.metrics.Retries.Load())
	httpapi.Counter(w, "scale_shard_pool_probes_total", "Active health probes sent.", p.metrics.Probes.Load())
	var open, trips int64
	for _, b := range p.breakers {
		if b.State() == BreakerOpen {
			open++
		}
		trips += b.Trips()
	}
	httpapi.Counter(w, "scale_shard_pool_breaker_trips_total", "Circuit breakers tripped open.", trips)
	httpapi.Gauge(w, "scale_shard_pool_breaker_open", "Workers whose circuit breaker is currently open.", open)
	httpapi.Gauge(w, "scale_shard_pool_workers_live", "Workers whose circuit breaker is closed.", p.LiveWorkers())
	httpapi.Gauge(w, "scale_shard_pool_workers", "Workers in the replica pool.", len(p.cfg.Workers))
	httpapi.Gauge(w, "scale_shard_pool_parts", "Shards per request.", p.cfg.Parts)
}

// normalizeAddr turns a worker address into its base URL: "http://" unless
// it names a scheme, and no trailing "/", which would make every post path
// start with "//".
func normalizeAddr(a string) string {
	if !strings.HasPrefix(a, "http://") && !strings.HasPrefix(a, "https://") {
		a = "http://" + a
	}
	return strings.TrimSuffix(a, "/")
}

// rank orders workers for key by rendezvous (highest random weight)
// hashing: each worker scores hash64 of the key and its address, highest
// first, ties broken by address. The first worker owns the key and the rest
// are its failover order. A joining worker takes only the keys it now
// outscores every other worker on, and a leaving worker's keys pass to
// their next-ranked worker; no other key moves.
func rank(key string, workers []string) []string {
	type scored struct {
		score uint64
		addr  string
	}
	s := make([]scored, len(workers))
	for i, w := range workers {
		s[i] = scored{hash64(key + "\x00" + w), w}
	}
	slices.SortFunc(s, func(a, b scored) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return strings.Compare(a.addr, b.addr)
	})
	out := make([]string, len(s))
	for i, w := range s {
		out[i] = w.addr
	}
	return out
}

// hash64 is FNV-64a with a splitmix64-style finalizer. Raw FNV avalanches
// poorly on short, similar strings ("key\x00host:1", "key\x00host:2", …);
// the finalizer spreads their scores, and TestRingDistributionBounds pins
// the resulting evenness.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// candidates returns the failover-ordered worker list for key: the rank
// order with breaker-unavailable workers moved to the back (not removed —
// when every breaker is open, trying beats refusing).
func (p *Pool) candidates(key string) []string {
	ranked := rank(key, p.cfg.Workers)
	up := make([]string, 0, len(ranked))
	var skipped []string
	for _, a := range ranked {
		if p.breakers[a].Available() {
			up = append(up, a)
		} else {
			skipped = append(skipped, a)
		}
	}
	return append(up, skipped...)
}

// shardRun is the pool-side state of one shard during a pass.
type shardRun struct {
	sub   *Subgraph
	reqID uint64
	key   string // routing key: sessionKey#shardIndex
	addr  string // worker currently holding the run ("" = not loaded)
}

// permanentErr marks worker answers that retrying elsewhere cannot fix
// (bad input, usage): the pass aborts instead of failing over.
type permanentErr struct{ err error }

func (e *permanentErr) Error() string { return e.err.Error() }
func (e *permanentErr) Unwrap() error { return e.err }

// Run executes one sharded forward pass: partition g into Parts shards, load
// each shard onto its top-ranked worker, advance all shards layer by layer
// — gathering owned rows and redistributing halo rows at every boundary —
// and return the final |V|×dims[last] embedding matrix plus the partition
// plan (for cost reporting). fp32 results are bit-identical to an unsharded
// pass; int8 results are not (per-shard activation scales) and only
// shape-compatible.
func (p *Pool) Run(ctx context.Context, spec SessionSpec, g *graph.Graph, x *tensor.Matrix) (*tensor.Matrix, *Plan, error) {
	if err := ValidateDims(g.NumVertices(), spec.Dims); err != nil {
		return nil, nil, err
	}
	if x.Rows != g.NumVertices() || x.Cols != spec.Dims[0] {
		return nil, nil, fmt.Errorf("shard: features are %dx%d, graph wants %dx%d: %w",
			x.Rows, x.Cols, g.NumVertices(), spec.Dims[0], fault.ErrBadShape)
	}
	plan, err := PartitionGraph(g, p.cfg.Parts)
	if err != nil {
		return nil, nil, err
	}
	p.metrics.Requests.Add(1)

	base := p.reqSeq.Add(1)
	sessKey := spec.key()
	runs := make([]*shardRun, plan.K)
	for s := range runs {
		runs[s] = &shardRun{
			sub:   &plan.Shards[s],
			reqID: base<<16 | uint64(s),
			key:   fmt.Sprintf("%s#%d", sessKey, s),
		}
	}

	h := x
	// Load every shard at layer 0, in parallel.
	if err := p.forEachShard(runs, func(sr *shardRun) error {
		return p.loadShard(ctx, spec, sr, 0, h)
	}); err != nil {
		return nil, nil, err
	}

	layers := len(spec.Dims) - 1
	for li := 0; li < layers; li++ {
		next := tensor.NewMatrix(g.NumVertices(), spec.Dims[li+1])
		var scatter sync.Mutex
		if err := p.forEachShard(runs, func(sr *shardRun) error {
			resp, err := p.layerShard(ctx, spec, sr, li, h)
			if err != nil {
				return err
			}
			cols := int(resp.Cols)
			scatter.Lock()
			defer scatter.Unlock()
			for i, lo := range sr.sub.Owned {
				copy(next.Row(int(sr.sub.Global[lo])), resp.Rows[i*cols:(i+1)*cols])
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
		h = next
	}

	// Best-effort finish: RunTTL reclaims anything this misses.
	for _, sr := range runs {
		if sr.addr != "" {
			_, _ = p.post(ctx, sr.addr+fmt.Sprintf("/v1/shard/finish?req=%d", sr.reqID), nil)
		}
	}
	return h, plan, nil
}

// forEachShard runs fn over all shards concurrently and returns the first
// error (permanent errors preferred, so a 400 isn't masked by the cancelled
// peers it causes).
func (p *Pool) forEachShard(runs []*shardRun, fn func(*shardRun) error) error {
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, sr := range runs {
		wg.Add(1)
		go func(i int, sr *shardRun) {
			defer wg.Done()
			errs[i] = fn(sr)
		}(i, sr)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var pe *permanentErr
		if errors.As(err, &pe) {
			return pe.err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// loadShard ships sr's subgraph (with feature rows taken from the global
// matrix h, which holds layer li's input) to the first candidate worker that
// accepts it. Breaker-admitted candidates go first; if every breaker refuses
// — the whole fleet looks dead — the refused workers are tried anyway as a
// last resort.
func (p *Pool) loadShard(ctx context.Context, spec SessionSpec, sr *shardRun, li int, h *tensor.Matrix) error {
	sub := sr.sub
	n := len(sub.Global)
	q := &LoadRequest{
		ReqID:     sr.reqID,
		Model:     spec.Model,
		Precision: spec.Precision,
		Layer:     int32(li),
		Owned:     sub.Owned,
		Degrees:   sub.Degrees,
	}
	q.Dims = make([]int32, len(spec.Dims))
	for i, d := range spec.Dims {
		q.Dims[i] = int32(d)
	}
	q.RowPtr = make([]int32, n+1)
	q.ColIdx = make([]int32, 0, sub.Graph.NumEdges())
	for v := 0; v < n; v++ {
		nbrs := sub.Graph.InNeighbors(v)
		q.RowPtr[v+1] = q.RowPtr[v] + int32(len(nbrs))
		q.ColIdx = append(q.ColIdx, nbrs...)
	}
	q.Features = make([]float32, 0, n*h.Cols)
	for _, gv := range sub.Global {
		q.Features = append(q.Features, h.Row(int(gv))...)
	}
	body := q.Encode()

	var lastErr error
	var denied []string
	attempt := func(addr string) (bool, error) {
		resp, err := p.postRetry(ctx, addr+"/v1/shard/load", body)
		if err == nil && resp.code == http.StatusNoContent {
			p.breakers[addr].Success()
			sr.addr = addr
			return true, nil
		}
		lastErr = p.noteFailure(addr, resp, err)
		var pe *permanentErr
		if errors.As(lastErr, &pe) {
			return false, lastErr
		}
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		return false, nil
	}
	for _, addr := range p.candidates(sr.key) {
		if !p.breakers[addr].Allow() {
			denied = append(denied, addr)
			continue
		}
		ok, err := attempt(addr)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
	}
	// All-denied (or every admitted worker failed): try the breaker-refused
	// workers too before giving up — the breakers may simply be stale.
	for _, addr := range denied {
		ok, err := attempt(addr)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
	}
	if lastErr == nil {
		lastErr = errors.New("no candidate workers")
	}
	return fmt.Errorf("shard %d: no worker accepted load: %w", sub.Index, lastErr)
}

// layerShard advances sr one layer, sending the halo rows its worker needs
// from the global layer-input matrix h. If the worker died since the load,
// the shard is reloaded at layer li on the next candidate — h is the
// complete global state at this boundary, so failover loses nothing.
func (p *Pool) layerShard(ctx context.Context, spec SessionSpec, sr *shardRun, li int, h *tensor.Matrix) (*LayerResponse, error) {
	sub := sr.sub
	q := &LayerRequest{ReqID: sr.reqID, Layer: int32(li), Cols: int32(h.Cols)}
	if li > 0 {
		// The load already carried layer 0's halo rows inside Features.
		q.HaloIDs = sub.Halo
		q.HaloRows = make([]float32, 0, len(sub.Halo)*h.Cols)
		for _, lh := range sub.Halo {
			q.HaloRows = append(q.HaloRows, h.Row(int(sub.Global[lh]))...)
		}
	}
	body := q.Encode()
	p.metrics.HaloBytesSent.Add(int64(len(q.HaloRows)) * 4)

	var lastErr error
	for attempt := 0; attempt < len(p.cfg.Workers)+1; attempt++ {
		if sr.addr == "" {
			// Worker lost between calls (or a previous attempt failed):
			// reload this shard at the current boundary somewhere healthy.
			// The fresh load carries h's rows, so no halo update is due.
			if err := p.loadShard(ctx, spec, sr, li, h); err != nil {
				return nil, err
			}
			p.metrics.Reloads.Add(1)
			body = (&LayerRequest{ReqID: sr.reqID, Layer: int32(li), Cols: int32(h.Cols)}).Encode()
		}
		resp, err := p.postRetry(ctx, sr.addr+"/v1/shard/layer", body)
		if err == nil && resp.code == http.StatusOK {
			lr, derr := DecodeLayerResponse(resp.body)
			if derr == nil {
				if want := len(sub.Owned) * int(lr.Cols); len(lr.Rows) != want {
					return nil, fmt.Errorf("shard %d: layer %d returned %d values, want %d: %w",
						sub.Index, li, len(lr.Rows), want, fault.ErrBadShape)
				}
				p.breakers[sr.addr].Success()
				p.metrics.LayerCalls.Add(1)
				return lr, nil
			}
			err = derr // truncated/corrupt frame → treat as worker failure
		}
		lastErr = p.noteFailure(sr.addr, resp, err)
		var pe *permanentErr
		if errors.As(lastErr, &pe) {
			return nil, lastErr
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		sr.addr = "" // force a reload on the next attempt
	}
	return nil, fmt.Errorf("shard %d: layer %d failed on every worker: %w", sub.Index, li, lastErr)
}

// postResult is one worker answer: status code, raw body, and the error
// payload of a non-2xx answer (a body that is not one becomes its message).
type postResult struct {
	code   int
	body   []byte
	apiErr httpapi.Error
}

// transient reports whether the answer is worth retrying on the same worker:
// a 429 (full run table) is a momentary load condition — the worker holds
// our run and will recover; ejecting it would force a reload elsewhere for
// no reason. A worker's 503 is a drain (httpapi.Classify sends no other),
// which retrying cannot outlast.
func (r *postResult) transient() bool { return r.code == http.StatusTooManyRequests }

// post sends one frame and reads the full answer. The call's deadline is
// derived from ctx capped at RequestTimeout — a caller deadline that is
// earlier wins (the caller's budget spans the whole pass), and a hung worker
// cannot stall a budget-less caller past RequestTimeout.
func (p *Pool) post(ctx context.Context, url string, frame []byte) (*postResult, error) {
	if p.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.cfg.RequestTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := httpapi.ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, err
	}
	res := &postResult{code: resp.StatusCode, body: body}
	if res.code >= http.StatusMultipleChoices && json.Unmarshal(body, &res.apiErr) != nil {
		res.apiErr.Error = string(body)
	}
	return res, nil
}

// postRetry posts a frame, retrying a 429 in place up to MaxRetries times,
// httpapi.RetryAfter apart. The wait is the pool's, not the worker's: a
// Retry-After header is not read. Transport errors and other statuses
// return immediately — they are the failover path's business, not ours.
func (p *Pool) postRetry(ctx context.Context, url string, frame []byte) (*postResult, error) {
	for attempt := 0; ; attempt++ {
		res, err := p.post(ctx, url, frame)
		if err != nil || !res.transient() || attempt >= p.cfg.MaxRetries {
			return res, err
		}
		p.metrics.Retries.Add(1)
		t := time.NewTimer(httpapi.RetryAfter)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
}

// noteFailure classifies one failed worker exchange after any in-place
// retries are spent: 400s are permanent (same input fails everywhere); 404
// no_run and exhausted 429 answers fail over WITHOUT feeding
// the breaker (the worker is alive, it just cannot serve this call right
// now); transport errors, drains, and 5xx count against the breaker.
func (p *Pool) noteFailure(addr string, resp *postResult, err error) error {
	if err != nil {
		p.breakers[addr].Failure()
		p.metrics.Failovers.Add(1)
		return fmt.Errorf("worker %s: %w", addr, err)
	}
	if resp.code == http.StatusBadRequest || resp.code == http.StatusMethodNotAllowed {
		return &permanentErr{err: fmt.Errorf("worker %s: %s: %w", addr, resp.apiErr.Error, fault.ErrBadConfig)}
	}
	switch {
	case resp.code == http.StatusNotFound:
		// no_run: the worker lost our state (restart, TTL expiry). The worker
		// itself is healthy; the run must be reloaded, nothing more.
	case resp.transient():
		// Retries in place are exhausted but the worker is only overloaded —
		// fail over for this call without calling the worker broken.
	default:
		p.breakers[addr].Failure()
		p.metrics.Failovers.Add(1)
	}
	return fmt.Errorf("worker %s: status %d: %s", addr, resp.code, resp.apiErr.Error)
}
