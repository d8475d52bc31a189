// scale-shard runs one shard worker of the sharded serving tier: it holds
// scale.Sessions and in-flight shard runs, and advances each run one model
// layer per call, exchanging halo vertex rows with the front tier
// (scale-serve -shards) between layers.
//
// Endpoints (binary wire format, internal/shard):
//
//	POST /v1/shard/load    one shard's CSR subgraph + features → 204
//	POST /v1/shard/layer   halo row updates → one layer → owned output rows
//	POST /v1/shard/finish  ?req=<id> drops the run → 204
//	GET  /healthz          200 while serving, 503 while draining
//	GET  /metrics          Prometheus text: loads, layers, halo rows, runs,
//	                       sessions
//
// Status mapping is scale-serve's, from the same package (internal/httpapi):
// malformed frames and unknown models are 400 (fault sentinels), a non-POST
// call 405, deadlines 408, a full run table 429 with Retry-After, contained
// panics 500, a draining worker 503 with Retry-After. Layer calls for runs
// this worker does not hold answer 404 ("no_run") so the front tier reloads
// instead of failing over.
//
// Shutdown: the first SIGINT/SIGTERM stops admission and drains in-flight
// layer calls (bounded by -drain-timeout); a second signal force-kills.
//
// Exit codes: 0 success/clean drain, 1 usage, 2 bad input, 3 runtime.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"scale"
	"scale/internal/cli"
	"scale/internal/shard"
	"scale/internal/shard/chaosnet"
)

func main() { cli.Main("scale-shard", run) }

func run(ctx context.Context) error {
	fs := flag.NewFlagSet("scale-shard", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8090", "listen address")
		macs         = fs.Int("macs", 1024, "MAC budget: 512, 1024, 2048, 4096")
		ring         = fs.Int("ring", 0, "forced ring size (0 = Eq. 3 per layer)")
		batch        = fs.Int("batch", 0, "forced scheduling batch (0 = analytical model)")
		policy       = fs.String("policy", "dvs", "scheduling: dvs, degree, vertex")
		sessions     = fs.Int("sessions", 8, "session cache capacity")
		runs         = fs.Int("runs", 64, "concurrent shard-run capacity (overflow answers 429)")
		runTTL       = fs.Duration("run-ttl", 2*time.Minute, "idle run eviction (reclaims runs whose front tier died)")
		workers      = fs.Int("workers", 0, "goroutines per layer call (0 = accelerator default)")
		chaosSpec    = fs.String("chaos", "", "fault-injection spec, e.g. \"latency=0.3,reset=0.05,truncate=0.1,flap=400ms\" (chaosnet.Parse; empty disables)")
		chaosSeed    = fs.Int64("chaos-seed", 0, "seed for the -chaos fault stream (0 = clock)")
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
	if *runs < 0 || *sessions < 0 || *runTTL < 0 {
		return cli.Usagef("-runs %d, -sessions %d, -run-ttl %s: none may be negative (0 selects the default)",
			*runs, *sessions, *runTTL)
	}
	chaosCfg, err := chaosnet.Parse(*chaosSpec)
	if err != nil {
		return cli.Usagef("bad -chaos: %v", err)
	}
	chaosCfg.Seed = *chaosSeed

	sim, err := scale.New(scale.Options{MACs: *macs, RingSize: *ring, BatchSize: *batch, Scheduling: *policy})
	if err != nil {
		return err
	}
	worker := shard.NewWorker(shard.WorkerConfig{
		Sim:            sim,
		MaxRuns:        *runs,
		MaxSessions:    *sessions,
		RunTTL:         *runTTL,
		ForwardWorkers: *workers,
	})
	handler := worker.Handler()
	if chaosCfg.Active() {
		handler = chaosnet.Middleware(handler, chaosCfg)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "scale-shard: listening on %s (runs=%d sessions=%d ttl=%s)\n",
		*addr, *runs, *sessions, *runTTL)
	if chaosCfg.Active() {
		fmt.Fprintf(os.Stderr, "scale-shard: CHAOS enabled (%s, seed=%d) — injecting faults into /v1/ responses\n", *chaosSpec, *chaosSeed)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	worker.BeginDrain()
	fmt.Fprintf(os.Stderr, "scale-shard: draining (budget %s; send a second signal to force-quit)\n", *drainTimeout)
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err = httpSrv.Shutdown(shCtx)
	worker.Close()
	if err != nil {
		return fmt.Errorf("scale-shard: drain incomplete: %w", err)
	}
	fmt.Fprintln(os.Stderr, "scale-shard: drained cleanly")
	return nil
}
