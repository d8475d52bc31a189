// Command perfbench is the repository's end-to-end benchmark. It boots the
// serving stack in-process (scale.New → serve.New, plus a dynamic graph or
// in-process shard workers where a workload needs them), drives one seeded
// traffic mix through serve.Server.Handler(), checks every response after
// the timed window, and prints each metric with its unit. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
//	bash perfbench/run.sh --workload resident-rw --seed 7 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the same inputs
// with spans recorded around each layer's public entry points and reports
// the per-layer metrics. NOTES.md describes the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

type metricDef struct{ name, unit string }

// endToEnd lists the untraced, gated metrics, in BENCHMARK.json order.
// Every workload reports every one of them. Wall-clock latencies are printed
// beside them but not gated (see usage).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_req", "ms"},
	{"alloc_kb_per_req", "KiB"},
	{"max_rss_mb", "MB"},
}

// perLayer lists the traced metrics, in BENCHMARK.json order. A workload
// that never reaches a layer reports 0 for it and names it on a
// "not-reached" line.
var perLayer = []metricDef{
	{"tracing.overhead_ms", "ms"},
	{"serve.rejections", "count"},
	{"serve.sessions_created", "count"},
	{"serve.batch_size_mean", "count"},
	{"serve.backend_ms_p50", "ms"},
	{"serve.nonbackend_ms_mean", "ms"},
	{"graph.profile_ms_p50", "ms"},
	{"core.run_ms_p50", "ms"},
	{"baseline.run_ms_p50", "ms"},
	{"core.l0.fp32.ms", "ms"},
	{"core.l1.fp32.ms", "ms"},
	{"core.l0.int8.ms", "ms"},
	{"core.l1.int8.ms", "ms"},
	{"gnn.l0.fp32.prepare_ms", "ms"},
	{"gnn.l1.fp32.prepare_ms", "ms"},
	{"gnn.l0.int8.prepare_ms", "ms"},
	{"gnn.l1.int8.prepare_ms", "ms"},
	{"sched.l0.schedule_ms", "ms"},
	{"sched.l1.schedule_ms", "ms"},
	{"core.l0.fp32.agg_update_ms", "ms"},
	{"core.l1.fp32.agg_update_ms", "ms"},
	{"core.l0.int8.agg_update_ms", "ms"},
	{"core.l1.int8.agg_update_ms", "ms"},
	{"core.l0.modelled_agg_cycles", "cycles"},
	{"core.l0.modelled_update_cycles", "cycles"},
	{"core.l1.modelled_agg_cycles", "cycles"},
	{"core.l1.modelled_update_cycles", "cycles"},
	{"dyn.apply_ms_p50", "ms"},
	{"dyn.view_ms_p50", "ms"},
	{"dyn.sample_ms_p50", "ms"},
	{"core.sampled_ms_p50", "ms"},
	{"graph.build_ms", "ms"},
	{"shard.partition_ms", "ms"},
	{"shard.run_ms.fp32", "ms"},
	{"shard.run_ms.int8", "ms"},
	{"scale.infer_graph_ms.fp32", "ms"},
	{"scale.infer_graph_ms.int8", "ms"},
	{"serve.front_ms.fp32", "ms"},
	{"serve.front_ms.int8", "ms"},
	{"shard.calls_per_pass", "count"},
	{"shard.bytes_sent_per_pass", "bytes"},
	{"shard.bytes_recv_per_pass", "bytes"},
	{"shard.roundtrip_ms.load", "ms"},
	{"shard.roundtrip_ms.layer", "ms"},
	{"shard.worker_ms.load", "ms"},
	{"shard.worker_ms.layer", "ms"},
	{"shard.gap_ms.load", "ms"},
	{"shard.gap_ms.layer", "ms"},
	{"shard.halo_bytes", "bytes"},
	{"shard.modelled_halo_bytes", "bytes"},
	{"shard.retries", "count"},
	{"shard.failovers", "count"},
	{"anomaly.local_w1_ms.fp32", "ms"},
	{"anomaly.local_ms.fp32", "ms"},
	{"anomaly.shard_k1_ms.fp32", "ms"},
	{"anomaly.local_w1_ms.int8", "ms"},
	{"anomaly.local_ms.int8", "ms"},
	{"anomaly.shard_k1_ms.int8", "ms"},
	{"anomaly.shard_k1_worker_ms.int8", "ms"},
	{"anomaly.shard_k1_bytes.int8", "bytes"},
}

// unmeasured names what spans placed outside the program cannot separate;
// traced runs print it beside the per-layer metrics.
var unmeasured = [][2]string{
	{"aggregation apart from update", "core.forwardLayer interleaves them per vertex (runGroup); only their sum, agg_update_ms, is measured"},
	{"int8 activation quantization", "runs inside core.forwardLayer; it is part of agg_update_ms"},
	{"admission, decode and batch-window wait apart", "they happen inside the serve handler; only their sum with encode, serve.nonbackend_ms_mean, is derived"},
	{"which micro-batch served a request", "a merged batch runs under a context of its own, so backend spans have no request parent"},
	{"dyn schedule-table refresh", "runs inside dyn.Graph.Apply; it is part of dyn.apply_ms_p50"},
	{"shard codec apart from HTTP", "both sit inside one round trip; only their sum, shard.gap_ms, is measured"},
}

// runConfig is what a workload needs from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	log     io.Writer   // human-readable lines, before the final JSON line
	cal     *calibrator // the host-speed reference CPU times are scaled by
}

// report is a workload's result: every request outcome, the metrics it
// computed, and the tracer of a traced run.
type report struct {
	outcomes []*outcome
	metrics  map[string]float64
	tr       *tracer
}

type workloadFunc func(runConfig) (*report, error)

var workloads = map[string]workloadFunc{
	"small-open":      smallOpen,
	"resident-rw":     residentRW,
	"carried-sharded": carriedSharded,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: small-open, resident-rw or carried-sharded")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 10, "measured seconds")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fl.String("out", ".bench_build", "directory for trace files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (small-open, resident-rw, carried-sharded), --seconds > 0, --trace 0|1\n")
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	for _, kv := range envStamp(*name, *seed, *seconds) {
		fmt.Fprintf(stdout, "env %s=%s\n", kv[0], kv[1])
	}

	cal := newCalibrator()
	defer cal.close()
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, log: stdout, cal: cal}
	rep, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if rep.tr != nil {
		dir := filepath.Join(*out, "traces")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := rep.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(rep.tr.snapshot()), path)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %-34s %14.4f %s\n", d.name, v, d.unit)
	}
	if len(missing) > 0 {
		fmt.Fprintf(stdout, "not-reached %s\n", strings.Join(missing, " "))
	}
	if cfg.trace {
		for _, u := range unmeasured {
			fmt.Fprintf(stdout, "unmeasured %s: %s\n", u[0], u[1])
		}
	}
	attempted, failed := tally(rep.outcomes)
	correct := true
	for _, o := range rep.outcomes {
		if o.code == 200 && !o.checked {
			correct = false
		}
	}
	if attempted > 0 {
		fmt.Fprintf(stdout, "error_rate %.6f (%d failed of %d attempted)\n", float64(failed)/float64(attempted), failed, attempted)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// maxRSSMB is the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// envStamp records where a result came from: platform, CPU, parallelism,
// toolchain, source revision, seed and run length.
func envStamp(workload string, seed int64, seconds float64) [][2]string {
	return [][2]string{
		{"workload", workload},
		{"seed", fmt.Sprint(seed)},
		{"seconds", fmt.Sprint(seconds)},
		{"goos", runtime.GOOS},
		{"goarch", runtime.GOARCH},
		{"cpu", cpuModel()},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"go", runtime.Version()},
		{"commit", gitCommit()},
		{"source_sha256", sourceDigest()},
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo (Linux); elsewhere it
// reports "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from a .git directory in the working directory,
// without running git. A checkout without .git reports "none"; the source
// digest still identifies the code.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under the working
// directory (build output and .git excluded), so a result names the exact
// code it measured even in a checkout that is not a git repository.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
