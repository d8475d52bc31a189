// scale-serve runs the SCALE reproduction as a long-lived inference
// service: a stdlib-only JSON API over HTTP backed by the session cache,
// dynamic micro-batcher, and bounded admission queue of internal/serve.
//
// Endpoints:
//
//	POST /v1/simulate  {"model":"gcn","dataset":"cora"} → scale.Report
//	POST /v1/infer     {"model":"gin","dims":[2,3],"num_vertices":3,
//	                    "edges":[[0,1],[2,1]],"features":[[1,0],[0,1],[1,1]],
//	                    "timeout_ms":500,"precision":"int8"}
//	                    → {"embeddings":[[...],...]}
//	                    (precision defaults to the -precision flag, then fp32)
//	GET  /healthz      200 while serving, 503 while draining
//	GET  /metrics      Prometheus text: request counters, latency
//	                   histograms, batch/queue/session counters
//
// Status mapping (internal/httpapi, shared with scale-shard): malformed
// input and unknown models/datasets are 400 (fault sentinels), a non-POST
// API call 405, per-request deadlines 408, a full admission queue 429,
// contained panics 500 (the process survives), and a draining server
// answers 503; 429 and 503 carry Retry-After. A /v1/mutate that arrives
// while the dynamic graph compacts waits for the compaction.
//
// Shutdown: the first SIGINT/SIGTERM stops admission and drains in-flight
// requests (bounded by -drain-timeout); a second signal force-kills.
//
// Exit codes: 0 success/clean drain, 1 usage, 2 bad input, 3 runtime.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"scale"
	"scale/internal/cli"
	"scale/internal/dyn"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/noc"
	"scale/internal/serve"
	"scale/internal/shard"
)

func main() { cli.Main("scale-serve", run) }

func run(ctx context.Context) error {
	fs := flag.NewFlagSet("scale-serve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		macs         = fs.Int("macs", 1024, "MAC budget: 512, 1024, 2048, 4096")
		ring         = fs.Int("ring", 0, "forced ring size (0 = Eq. 3 per layer)")
		batch        = fs.Int("batch", 0, "forced scheduling batch (0 = analytical model)")
		policy       = fs.String("policy", "dvs", "scheduling: dvs, degree, vertex")
		batchWindow  = fs.Duration("batch-window", 2*time.Millisecond, "micro-batch latency budget (how long a batch waits for late joiners)")
		maxBatch     = fs.Int("max-batch", 16, "max infer requests coalesced into one forward call (1 disables batching)")
		queueDepth   = fs.Int("queue", 64, "bounded admission queue depth (overflow answers 429)")
		maxSessions  = fs.Int("sessions", 8, "session cache capacity (LRU eviction)")
		maxVertices  = fs.Int("max-vertices", 1<<20, "per-request vertex cap")
		precision    = fs.String("precision", "", "default execution precision for infer requests without one: fp32 (default) or int8")
		shards       = fs.String("shards", "", "comma-separated scale-shard worker addresses; empty serves single-process")
		shardParts   = fs.Int("shard-parts", 0, "graph partitions per sharded request (0 = one per worker)")
		topology     = fs.String("topology", "ring", "NoC topology costing the halo exchange: "+strings.Join(noc.KindNames(), ", "))
		shardMin     = fs.Int("shard-min", 256, "smallest request (vertices) routed to the shard tier; below it stays on the local micro-batcher")
		probeEvery   = fs.Duration("probe-interval", 2*time.Second, "worker health-probe interval (jittered ±20%)")
		breakerN     = fs.Int("breaker-threshold", 3, "consecutive worker failures before its circuit breaker opens")
		breakerCool  = fs.Duration("breaker-cooldown", time.Second, "open-breaker cooldown before a half-open probe")
		shardRetries = fs.Int("shard-retries", 3, "in-place retries per worker call on 429s")
		dynamic      = fs.String("dynamic", "", "serve a mutable graph: a dataset name (cora, ...) or er:<vertices>:<edges>; enables POST /v1/mutate and \"graph\":\"dynamic\" infers")
		dynDim       = fs.Int("dyn-dim", 16, "feature width of the dynamic graph's seeded random features")
		dynCompact   = fs.Float64("dyn-compact", 0.25, "delta fraction triggering dynamic-graph compaction")
		sampleWork   = fs.Int("sample-workers", 0, "worker count for dynamic/sampled inference (0 = all cores; results are worker-count invariant)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful drain budget after SIGTERM")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return &cli.UsageError{Err: err}
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments %v", fs.Args())
	}
	if *queueDepth < 0 || *maxSessions < 0 || *maxVertices < 0 {
		return cli.Usagef("-queue %d, -sessions %d, -max-vertices %d: none may be negative (0 selects the default)",
			*queueDepth, *maxSessions, *maxVertices)
	}
	if *precision != "" {
		ok := false
		for _, p := range scale.Precisions() {
			if *precision == p {
				ok = true
				break
			}
		}
		if !ok {
			return cli.Usagef("unknown -precision %q (want one of %v)", *precision, scale.Precisions())
		}
	}

	sim, err := scale.New(scale.Options{MACs: *macs, RingSize: *ring, BatchSize: *batch, Scheduling: *policy})
	if err != nil {
		return err
	}
	var pool *shard.Pool
	if *shards != "" {
		topo, err := noc.ParseKind(*topology)
		if err != nil {
			return cli.Usagef("bad -topology: %v", err)
		}
		var workers []string
		for _, a := range strings.Split(*shards, ",") {
			if a = strings.TrimSpace(a); a != "" {
				workers = append(workers, a)
			}
		}
		pool, err = shard.NewPool(shard.PoolConfig{
			Workers:          workers,
			Parts:            *shardParts,
			Topology:         topo,
			ProbeInterval:    *probeEvery,
			BreakerThreshold: *breakerN,
			DownFor:          *breakerCool,
			MaxRetries:       *shardRetries,
		})
		if err != nil {
			return err
		}
		pool.StartProber()
	}
	var dynGraph *dyn.Graph
	if *dynamic != "" {
		dynGraph, err = buildDynamic(*dynamic, *dynDim, *dynCompact)
		if err != nil {
			return err
		}
	}
	srv := serve.New(serve.Config{
		Sim:              sim,
		BatchWindow:      *batchWindow,
		MaxBatch:         *maxBatch,
		QueueDepth:       *queueDepth,
		MaxSessions:      *maxSessions,
		MaxVertices:      *maxVertices,
		DefaultPrecision: *precision,
		ShardPool:        pool,
		ShardMinVertices: *shardMin,
		Dynamic:          dynGraph,
		SampleWorkers:    *sampleWork,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "scale-serve: listening on %s (window=%s max-batch=%d queue=%d sessions=%d)\n",
		*addr, *batchWindow, *maxBatch, *queueDepth, *maxSessions)
	if pool != nil {
		fmt.Fprintf(os.Stderr, "scale-serve: sharding requests >=%d vertices across %d workers (parts=%d topology=%s)\n",
			*shardMin, len(pool.Workers()), pool.Parts(), pool.Topology())
	}
	if dynGraph != nil {
		st := dynGraph.Stats()
		fmt.Fprintf(os.Stderr, "scale-serve: dynamic graph %s: |V|=%d |E|=%d dim=%d (compact at %.0f%% delta)\n",
			*dynamic, st.Vertices, st.Edges, dynGraph.FeatureDim(), 100**dynCompact)
	}

	select {
	case err := <-errc:
		// ListenAndServe only returns on its own for bind/accept failures.
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (healthz flips to 503), let in-flight
	// requests finish under the drain budget, then retire the batchers.
	srv.BeginDrain()
	fmt.Fprintf(os.Stderr, "scale-serve: draining (budget %s; send a second signal to force-quit)\n", *drainTimeout)
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err = httpSrv.Shutdown(shCtx)
	srv.Close()
	if pool != nil {
		pool.Close()
	}
	if err != nil {
		return fmt.Errorf("scale-serve: drain incomplete: %w", err)
	}
	fmt.Fprintln(os.Stderr, "scale-serve: drained cleanly")
	return nil
}

// buildDynamic materializes the server's mutable graph from a spec: a
// registry dataset name, or "er:<vertices>:<edges>" for a seeded
// Erdős–Rényi graph (small controllable graphs for smokes and demos).
// Features are seeded random at the requested width, so a restarted server
// reproduces the same initial state.
func buildDynamic(spec string, dim int, compact float64) (*dyn.Graph, error) {
	if dim < 1 {
		return nil, cli.Usagef("-dyn-dim %d < 1", dim)
	}
	var g *graph.Graph
	if rest, ok := strings.CutPrefix(spec, "er:"); ok {
		parts := strings.Split(rest, ":")
		if len(parts) != 2 {
			return nil, cli.Usagef("bad -dynamic spec %q (want er:<vertices>:<edges>)", spec)
		}
		v, err1 := strconv.Atoi(parts[0])
		e, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || v < 1 || e < 0 {
			return nil, cli.Usagef("bad -dynamic spec %q (want er:<vertices>:<edges>)", spec)
		}
		g = graph.ErdosRenyi(v, e, 7)
	} else {
		d, err := graph.ByName(spec)
		if err != nil {
			return nil, err
		}
		g = d.Build()
	}
	x := gnn.RandomFeatures(g, dim, 11)
	return dyn.New(g, x, dyn.Config{CompactThreshold: compact})
}
