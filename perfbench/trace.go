package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scale"
	"scale/internal/serve"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around the layer's public entry points. Parent links a call to the
// span that caused it (0 = root). Sent/Recv carry wire bytes for transport
// spans and N a batch size for backend spans.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Sent   int64  `json:"sent,omitempty"`
	Recv   int64  `json:"recv,omitempty"`
	N      int    `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write flushes them when the run ends. A nil
// *tracer records nothing, which is how untraced runs use the same code.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id before the span ends, so children can point at it.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores one finished span.
func (t *tracer) record(s span, start, end time.Time) {
	if t == nil {
		return
	}
	s.Start, s.End = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of it its children cover.
// Overlapping children are counted once; the parts of children outside the
// parent's interval are ignored.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			if v.hi > curHi {
				curHi = v.hi
			}
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - time.Duration(covered)
}

// childrenOf indexes spans by parent id.
func childrenOf(spans []span) map[int64][]span {
	m := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			m[s.Parent] = append(m[s.Parent], s)
		}
	}
	return m
}

// spanMs returns the durations, in ms, of spans with the given name.
func spanMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// spanKey carries the current span id through a context, so transport spans
// can name the request that caused them.
type spanKey struct{}

func withSpan(ctx context.Context, id int64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// spanHeader carries a transport span's id to the shard worker, so the
// worker's handler span can point at the round trip that caused it.
const spanHeader = "X-Perfbench-Span"

// timingTransport is the shard.PoolConfig.Client transport of traced runs:
// one span per worker call, from send until the response body is drained,
// with the bytes sent and received.
type timingTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.newID()
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	s := span{ID: id, Parent: spanFrom(req.Context()), Name: "shard.roundtrip." + shardCall(req.URL.Path), Sent: req.ContentLength}
	start := time.Now()
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		t.tr.record(s, start, time.Now())
		return nil, err
	}
	resp.Body = &countingBody{rc: resp.Body, done: func(n int64) {
		s.Recv = n
		t.tr.record(s, start, time.Now())
	}}
	return resp, nil
}

// countingBody counts the bytes read from a response body and reports them
// once, at EOF or Close, whichever comes first.
type countingBody struct {
	rc   io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.rc.Close()
}

// shardCall names a worker endpoint: load, layer or finish.
func shardCall(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// timedWorker wraps a shard worker's handler with one span per call, parented
// on the transport span named in spanHeader.
func timedWorker(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.record(span{ID: tr.newID(), Parent: parent, Name: "shard.worker." + shardCall(r.URL.Path)}, start, time.Now())
	})
}

// timedBackend is the serve.Config.Backend of traced runs: the default
// (*scale.Session).InferBatch, with one span per executed micro-batch.
func timedBackend(tr *tracer) serve.Backend {
	return func(ctx context.Context, sess *scale.Session, reqs []scale.InferRequest) ([][][]float32, error) {
		start := time.Now()
		out, err := sess.InferBatch(ctx, reqs)
		tr.record(span{ID: tr.newID(), Name: "serve.backend", N: len(reqs)}, start, time.Now())
		return out, err
	}
}

// timed runs fn and records it as a span named name under parent.
func timed(tr *tracer, name string, parent int64, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	tr.record(span{ID: tr.newID(), Parent: parent, Name: name}, start, end)
	return end.Sub(start), err
}
