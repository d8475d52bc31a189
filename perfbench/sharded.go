package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	"scale"
	"scale/internal/graph"
	"scale/internal/serve"
	"scale/internal/shard"
	"scale/internal/tensor"
)

// carried-sharded: one closed-loop client sending the Reddit-scale graph in
// every request body (~7 MB of JSON), served through a shard.Pool of two
// in-process workers on loopback listeners, alternating fp32 and int8. It is
// the only path through the shard tier; JSON decode and the shard data plane
// dominate and the forward pass is a minority. k = 2 so halo bytes are
// non-zero.
const (
	shardParts    = 2
	shardSetups   = 5
	shardVariants = 2 // distinct feature matrices over the same graph
	shardReps     = 3
)

type shardInputs struct {
	g     *graph.Graph
	dims  []int
	edges [][2]int
	xs    []*tensor.Matrix
	reqs  []request
}

func genCarriedSharded(seed int64, n int) (*shardInputs, error) {
	g, dims, xs := redditScale(seed, shardVariants)
	in := &shardInputs{g: g, dims: dims, edges: edgeList(g), xs: xs}
	body := make(map[[2]int][]byte) // (variant, int8?) → body
	for v, x := range xs {
		for p, prec := range []string{"fp32", "int8"} {
			b, err := json.Marshal(map[string]any{
				"model": "gcn", "dims": dims, "precision": prec,
				"num_vertices": g.NumVertices(), "edges": in.edges, "features": rowsOf(x),
			})
			if err != nil {
				return nil, err
			}
			body[[2]int{v, p}] = b
		}
	}
	rng := rand.New(rand.NewSource(seed + 3))
	for i := 0; i < n; i++ {
		v, p := rng.Intn(shardVariants), i%2
		in.reqs = append(in.reqs, request{kind: []string{"fp32", "int8"}[p], path: "/v1/infer", ctype: "application/json", body: body[[2]int{v, p}], aux: v})
	}
	return in, nil
}

type shardWorker struct {
	w    *shard.Worker
	hs   *http.Server
	done chan error
	addr string
}

type shardSys struct {
	srv       *serve.Server
	h         http.Handler
	pool      *shard.Pool
	client    *http.Client
	transport *http.Transport
	workers   []*shardWorker
}

func bootSharded(in *shardInputs, tr *tracer, kept *bodies, warmOuts *[]*outcome) (*shardSys, error) {
	sys := &shardSys{transport: http.DefaultTransport.(*http.Transport).Clone()}
	var rt http.RoundTripper = sys.transport
	if tr != nil {
		rt = &timingTransport{base: sys.transport, tr: tr}
	}
	sys.client = &http.Client{Transport: rt}
	var addrs []string
	for i := 0; i < shardParts; i++ {
		wsim, err := scale.New(scale.Options{})
		if err != nil {
			sys.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			sys.close()
			return nil, err
		}
		sw := &shardWorker{w: shard.NewWorker(shard.WorkerConfig{Sim: wsim}), done: make(chan error, 1), addr: ln.Addr().String()}
		h := sw.w.Handler()
		if tr != nil {
			h = timedWorker(h, tr)
		}
		sw.hs = &http.Server{Handler: h}
		go func() { sw.done <- sw.hs.Serve(ln) }()
		sys.workers = append(sys.workers, sw)
		addrs = append(addrs, sw.addr)
	}
	pool, err := shard.NewPool(shard.PoolConfig{Workers: addrs, Parts: shardParts, Client: sys.client})
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.pool = pool
	sim, err := scale.New(scale.Options{})
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.srv = serve.New(serve.Config{Sim: sim, ShardPool: pool})
	sys.h = sys.srv.Handler()
	for _, kind := range []string{"fp32", "int8"} {
		r := firstOf(in.reqs, kind)
		o := send(sys.h, r, time.Now(), nil, kept)
		if o.code != http.StatusOK {
			sys.close()
			return nil, fmt.Errorf("first %s request: status %d: %s", kind, o.code, kept.get(o.hash))
		}
		*warmOuts = append(*warmOuts, warm([]*outcome{o})...)
	}
	return sys, nil
}

// close drains the front, the pool and every worker, and waits for each
// worker's listener goroutine to return.
func (s *shardSys) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	if s.pool != nil {
		s.pool.Close()
	}
	for _, w := range s.workers {
		w.w.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.hs.Shutdown(ctx) // a worker that does not drain in time is closed below
		cancel()
		_ = w.hs.Close()
		if err := <-w.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("warning: worker %s: %v\n", w.addr, err)
		}
		w.w.Close()
	}
	s.transport.CloseIdleConnections()
}

// checkSharded compares fp32 responses byte for byte with a direct
// Session.InferGraph on the same graph, and int8 responses with it within
// the accuracy bound.
func checkSharded(in *shardInputs, outs []*outcome, kept *bodies) error {
	sim, err := scale.New(scale.Options{})
	if err != nil {
		return err
	}
	sess, err := sim.NewSession("gcn", in.dims)
	if err != nil {
		return err
	}
	g := buildGraph(in.g.NumVertices(), in.edges)
	refs := make(map[int][][]float32)
	hashes := make(map[int]uint64)
	for _, o := range outs {
		if o.code != http.StatusOK {
			continue
		}
		rows, ok := refs[o.aux]
		if !ok {
			if rows, err = sess.InferGraph(context.Background(), g, in.xs[o.aux], 0); err != nil {
				return err
			}
			refs[o.aux], hashes[o.aux] = rows, hashOf(encodeInfer("gcn", "fp32", rows))
		}
		if o.kind == "fp32" {
			o.checked = o.hash == hashes[o.aux]
		} else {
			o.checked = checkInt8(kept.get(o.hash), rows) == nil
		}
	}
	return nil
}

// buildGraph builds a graph from an edge list exactly as the serving tier
// builds a request-carried one.
func buildGraph(n int, edges [][2]int) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build("user")
}

func carriedSharded(cfg runConfig) (*report, error) {
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		window /= 2
	}
	in, err := genCarriedSharded(cfg.seed, int(cfg.seconds*20)+20)
	if err != nil {
		return nil, err
	}
	kept := &bodies{}
	var warmOuts []*outcome
	boot := func(tr *tracer, k int) (*shardSys, []usage, error) {
		return setups(k, cfg.cal, func() (*shardSys, error) { return bootSharded(in, tr, kept, &warmOuts) },
			func(s *shardSys) { s.close() })
	}
	sys, setupUse, err := boot(nil, shardSetups)
	if err != nil {
		return nil, err
	}
	steal0, total0 := hostSteal()
	outs, used := closedLoop(sys.h, in.reqs, window, cfg.cal, nil, kept)
	rss := maxRSSMB()
	steal1, total1 := hostSteal()
	steal := 100 * (steal1 - steal0) / (total1 - total0)
	sys.close()
	if !cfg.trace {
		all := append(warmOuts, outs...)
		if err := checkSharded(in, all, kept); err != nil {
			return nil, err
		}
		return &report{outcomes: all, metrics: endToEndMetrics(cfg.log, all, setupUse, used, closedCPUPerReq(outs, in.reqs), steal, rss)}, nil
	}

	tr := newTracer()
	tsys, _, err := boot(tr, 1)
	if err != nil {
		return nil, err
	}
	defer tsys.close()
	touts, _ := closedLoop(tsys.h, in.reqs, window, cfg.cal, tr, kept)
	all := append(append(warmOuts, outs...), touts...)
	if err := checkSharded(in, all, kept); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	m["tracing.overhead_ms"] = median(latencies(touts, "fp32", "int8")) - median(latencies(outs, "fp32", "int8"))
	sm := tsys.srv.Metrics()
	m["serve.rejections"] = float64(sm.QueueRejections.Load())
	m["serve.sessions_created"] = float64(sm.SessionsCreated.Load())
	pm := tsys.pool.Metrics()
	m["shard.retries"] = float64(pm.Retries.Load())
	m["shard.failovers"] = float64(pm.Failovers.Load())
	traffic := tr.snapshot()
	shardTransportMetrics(traffic, m)
	if err := probeSharded(cfg, in, tsys, tr, touts, m); err != nil {
		return nil, err
	}
	return &report{outcomes: all, metrics: m, tr: tr}, nil
}

// shardTransportMetrics derives per-pass call and byte counts from the
// transport spans of the traced traffic, and the round-trip versus worker
// handler times per call kind. The round trip's self time (minus the
// worker span it caused) is the wire, codec and HTTP gap. Round trips
// without a request parent belong to set-up and are skipped.
func shardTransportMetrics(spans []span, m map[string]float64) {
	kids := childrenOf(spans)
	type pass struct{ calls, sent, recv float64 }
	passes := make(map[int64]*pass)
	trips, workers, gaps := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		kind, ok := strings.CutPrefix(s.Name, "shard.roundtrip.")
		if !ok || s.Parent == 0 {
			continue
		}
		trips[kind] = append(trips[kind], ms(s.dur()))
		for _, w := range kids[s.ID] {
			workers[kind] = append(workers[kind], ms(w.dur()))
		}
		p := passes[s.Parent]
		if p == nil {
			p = &pass{}
			passes[s.Parent] = p
		}
		p.calls++
		p.sent += float64(s.Sent)
		p.recv += float64(s.Recv)
		gaps[kind] = append(gaps[kind], ms(selfTime(s, kids[s.ID])))
	}
	var calls, sent, recv []float64
	for _, p := range passes {
		calls, sent, recv = append(calls, p.calls), append(sent, p.sent), append(recv, p.recv)
	}
	m["shard.calls_per_pass"] = median(calls)
	m["shard.bytes_sent_per_pass"] = median(sent)
	m["shard.bytes_recv_per_pass"] = median(recv)
	for _, k := range []string{"load", "layer"} {
		m["shard.roundtrip_ms."+k] = median(trips[k])
		m["shard.worker_ms."+k] = median(workers[k])
		m["shard.gap_ms."+k] = median(gaps[k])
	}
}

// probeSharded replays the carried graph through the layers' public
// functions: graph.Builder, shard.PartitionGraph, Pool.Run against
// Session.InferGraph at the workers' worker count, the halo bytes a pass
// sends against EstimateComm's model, and the two comparisons behind the
// BENCH_pr8 anomalies (local forward at workers=1 and at all cores, and a
// k = 1 pool over the same workers).
func probeSharded(cfg runConfig, in *shardInputs, sys *shardSys, tr *tracer, touts []*outcome, m map[string]float64) error {
	ctx := context.Background()
	var g *graph.Graph
	var err error
	m["graph.build_ms"], _ = probeMs(tr, "graph.build", shardReps, func() error { // building cannot fail
		g = buildGraph(in.g.NumVertices(), in.edges)
		return nil
	})
	var plan *shard.Plan
	if m["shard.partition_ms"], err = probeMs(tr, "shard.partition", shardReps, func() error {
		plan, err = shard.PartitionGraph(g, shardParts)
		return err
	}); err != nil {
		return err
	}
	est, err := shard.EstimateComm(plan, in.dims, 4, sys.pool.Topology(), 1)
	if err != nil {
		return err
	}
	m["shard.modelled_halo_bytes"] = float64(est.HaloBytes)

	k1, err := shard.NewPool(shard.PoolConfig{Workers: sys.pool.Workers(), Parts: 1, Client: sys.client})
	if err != nil {
		return err
	}
	defer k1.Close()
	sim, err := scale.New(scale.Options{})
	if err != nil {
		return err
	}
	x := in.xs[0]
	for _, prec := range []string{"fp32", "int8"} {
		spec := shard.SessionSpec{Model: "gcn", Dims: in.dims, Precision: prec}
		halo0 := sys.pool.Metrics().HaloBytesSent.Load()
		runMs, err := probeMs(tr, "shard.run", shardReps, func() error { _, _, err := sys.pool.Run(ctx, spec, g, x); return err })
		if err != nil {
			return err
		}
		if prec == "fp32" {
			m["shard.halo_bytes"] = float64(sys.pool.Metrics().HaloBytesSent.Load()-halo0) / shardReps
		}
		sess, err := sim.NewSessionPrecision("gcn", in.dims, prec)
		if err != nil {
			return err
		}
		localMs, err := probeMs(tr, "scale.infer_graph", shardReps, func() error { _, err := sess.InferGraph(ctx, g, x, 0); return err })
		if err != nil {
			return err
		}
		m["shard.run_ms."+prec] = runMs
		m["scale.infer_graph_ms."+prec] = localMs
		m["serve.front_ms."+prec] = median(latencies(touts, prec)) - runMs

		// BENCH_pr8 anomalies: BenchmarkShardLocal's layer loop at
		// workers=1, the same loop at all cores (what a shard worker uses),
		// and a one-shard pass with its bytes and worker time.
		layerLoop := func(workers int) func() error {
			return func() error {
				h := x
				for li := 0; li < sess.NumLayers(); li++ {
					var err error
					if h, err = sess.ForwardLayerCSR(ctx, li, g, h, nil, workers); err != nil {
						return err
					}
				}
				return nil
			}
		}
		if m["anomaly.local_w1_ms."+prec], err = probeMs(tr, "anomaly.local_w1", shardReps, layerLoop(1)); err != nil {
			return err
		}
		if m["anomaly.local_ms."+prec], err = probeMs(tr, "anomaly.local", shardReps, layerLoop(0)); err != nil {
			return err
		}
		var k1ms, workerMs, bytesK1 []float64
		for i := 0; i < shardReps; i++ {
			id := tr.newID()
			start := time.Now()
			if _, _, err := k1.Run(withSpan(ctx, id), spec, g, x); err != nil {
				return err
			}
			end := time.Now()
			tr.record(span{ID: id, Name: "anomaly.shard_k1"}, start, end)
			k1ms = append(k1ms, ms(end.Sub(start)))
			spans := tr.snapshot()
			kids := childrenOf(spans)
			var wsum, bsum float64
			for _, rt := range kids[id] {
				bsum += float64(rt.Sent + rt.Recv)
				for _, w := range kids[rt.ID] {
					wsum += ms(w.dur())
				}
			}
			workerMs, bytesK1 = append(workerMs, wsum), append(bytesK1, bsum)
		}
		m["anomaly.shard_k1_ms."+prec] = median(k1ms)
		if prec == "int8" {
			m["anomaly.shard_k1_worker_ms.int8"] = median(workerMs)
			m["anomaly.shard_k1_bytes.int8"] = median(bytesK1)
		}
		fmt.Fprintf(cfg.log, "%s: pool k=%d %.2f ms, k=1 %.2f ms (worker %.2f ms, %.0f bytes), local all-cores %.2f ms, local workers=1 %.2f ms, InferGraph %.2f ms\n",
			prec, shardParts, runMs, median(k1ms), median(workerMs), median(bytesK1),
			m["anomaly.local_ms."+prec], m["anomaly.local_w1_ms."+prec], localMs)
	}
	fmt.Fprintf(cfg.log, "halo bytes per pass: measured %.0f, modelled %d (EstimateComm, k=%d)\n", m["shard.halo_bytes"], est.HaloBytes, shardParts)
	return nil
}
