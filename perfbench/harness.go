package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"scale/internal/core"
	"scale/internal/graph"
	"scale/internal/sched"
	"scale/internal/tensor"
)

// setups builds the system k times and returns the last one plus what each
// build consumed; all but the last are torn down. The calibration kernel
// runs before the first build and after each, so every cold start has the
// host's speed measured on both sides of it; each side is the faster of two
// kernel runs, because the first run after a build finds its data evicted
// and the collector still busy. Repeating the cold start and taking the
// median keeps setup_s steady.
func setups[T any](k int, cal *calibrator, build func() (T, error), teardown func(T)) (T, []usage, error) {
	var last T
	var used []usage
	speed := func() time.Duration { return min(cal.sample(), cal.sample()) }
	before := speed()
	for i := 0; i < k; i++ {
		if i > 0 {
			teardown(last)
		}
		m := startMeter()
		sys, err := build()
		if err != nil {
			return last, nil, err
		}
		u := m.stop()
		after := speed()
		u.cal, before = (before+after)/2, after
		used = append(used, u)
		last = sys
	}
	return last, used, nil
}

// usage is what the process consumed over an interval: wall time, CPU time
// (user plus system, every thread) and bytes allocated. On a virtual
// machine the host may steal a vCPU for milliseconds at a time; the stolen
// time lengthens wall time but is not charged as the process's CPU time,
// which is why the gated metrics are CPU time and allocation, not latency.
type usage struct {
	wall, cpu time.Duration
	alloc     uint64
	cal       time.Duration // set-up: the calibration kernel's CPU time beside the interval
}

type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func startMeter() meter { return meter{wall: time.Now(), cpu: cpuTime(), alloc: totalAlloc()} }

func (m meter) stop() usage {
	return usage{wall: time.Since(m.wall), cpu: cpuTime() - m.cpu, alloc: totalAlloc() - m.alloc}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}

// hostSteal reads the CPU time the host took from this machine's vCPUs
// (/proc/stat, Linux) as a share of all CPU time so far; -1 elsewhere.
func hostSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1, 1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1, 1
	}
	for i, v := range f[1:9] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// request is one pre-encoded call of a closed-loop sequence.
type request struct {
	kind    string
	path    string
	ctype   string
	body    []byte
	version int
	aux     int
}

// bodies keeps one copy of each distinct response body that a check must
// parse after the run, keyed by hash.
type bodies struct {
	mu sync.Mutex
	m  map[uint64][]byte
}

func (b *bodies) keep(h uint64, body []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.m == nil {
		b.m = make(map[uint64][]byte)
	}
	if _, ok := b.m[h]; !ok {
		b.m[h] = body
	}
}

func (b *bodies) get(h uint64) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m[h]
}

// send serves one request through h under a request span and returns its
// outcome. Bodies a check must parse (int8, simulate, mutate, errors) are
// kept; the rest are checked by hash.
func send(h http.Handler, r request, due time.Time, tr *tracer, kept *bodies) *outcome {
	id := tr.newID()
	ctx := withSpan(context.Background(), id)
	sent := time.Now()
	code, body := post(ctx, h, r.path, r.ctype, r.body)
	end := time.Now()
	tr.record(span{ID: id, Name: "request." + r.kind}, sent, end)
	o := &outcome{kind: r.kind, due: due, sent: sent, end: end, code: code, hash: hashOf(body), version: r.version, aux: r.aux}
	if (r.kind != "fp32" && r.kind != "sampled") || code != 200 {
		kept.keep(o.hash, body)
	}
	return o
}

// closedLoop sends reqs one after another, each after the previous answer,
// until d has elapsed or the sequence ends. With one request in flight the
// process's CPU time across a request is that request's cost, so each
// outcome carries it, beside the calibration kernel's CPU time: the mean of
// the samples taken just before and just after the request. It returns the
// outcomes and what the window consumed.
func closedLoop(h http.Handler, reqs []request, d time.Duration, cal *calibrator, tr *tracer, kept *bodies) ([]*outcome, usage) {
	var outs []*outcome
	before := cal.sample()
	m := startMeter()
	for _, r := range reqs {
		if time.Since(m.wall) >= d {
			break
		}
		c0 := cpuTime()
		o := send(h, r, time.Now(), tr, kept)
		o.cpu = cpuTime() - c0
		after := cal.sample()
		o.cal, before = (before+after)/2, after
		outs = append(outs, o)
	}
	return outs, m.stop()
}

// warm marks outcomes of set-up requests: they are checked and counted but
// kept out of the latency percentiles.
func warm(outs []*outcome) []*outcome {
	for _, o := range outs {
		o.warm = true
	}
	return outs
}

// endToEndMetrics computes the gated metrics shared by every workload —
// set-up CPU time at the reference speed (see calRefMs), CPU time per
// completed request at that speed (cpuPerReq, computed for the kind of
// loop), allocation per completed request, peak RSS (rssMB, sampled when
// the window closed, before the checks allocate their references) — and
// prints the wall-clock latencies beside them. Latency percentiles are
// windowed (see windowed); the tail is the highest ladder percentile with
// ten samples beyond it (tailPercentile).
func endToEndMetrics(log io.Writer, outs []*outcome, setup []usage, u usage, cpuPerReq, steal, rssMB float64) map[string]float64 {
	timed := timedOutcomes(outs)
	reads := latencies(timed, "fp32", "int8", "sampled")
	completed := 0
	for _, o := range timed {
		if !o.failed() {
			completed++
		}
	}
	var setupRef, setupCPU, setupWall, setupCal []float64
	for _, s := range setup {
		setupRef = append(setupRef, atRef(s.cpu, s.cal)/1000)
		setupCPU, setupWall = append(setupCPU, s.cpu.Seconds()), append(setupWall, s.wall.Seconds())
		setupCal = append(setupCal, ms(s.cal))
	}
	fmt.Fprintf(log, "setup cpu_s %.4f at reference speed, %.4f as measured, wall_s %.4f, calibration %.3f ms (medians over %d cold starts)\n",
		median(setupRef), median(setupCPU), median(setupWall), median(setupCal), len(setup))
	fmt.Fprintf(log, "window wall_s %.3f cpu_s %.3f completed %d; host steal %.1f%% of CPU time\n", u.wall.Seconds(), u.cpu.Seconds(), completed, steal)
	tailPct := tailPercentile(len(reads))
	for _, l := range []struct {
		name string
		v    float64
		unit string
	}{
		{"p50_ms", windowed(reads, 50), "ms"},
		{"tail_ms", windowed(reads, tailPct), "ms"},
		{"fp32_p50_ms", windowed(latencies(timed, "fp32"), 50), "ms"},
		{"int8_p50_ms", windowed(latencies(timed, "int8"), 50), "ms"},
		{"throughput_rps", float64(completed) / u.wall.Seconds(), "1/s"},
	} {
		fmt.Fprintf(log, "latency %-16s %12.4f %s\n", l.name, l.v, l.unit)
	}
	fmt.Fprintf(log, "tail_ms is p%g of %d reads in %d window(s)\n", tailPct, len(reads), windows(len(reads), tailPct))
	for _, k := range []string{"fp32", "int8", "sampled", "mutate", "simulate"} {
		var lat, cpu, ref []float64
		for _, o := range timed {
			if o.kind == k {
				lat = append(lat, o.latencyMs())
				cpu = append(cpu, ms(o.cpu))
				ref = append(ref, atRef(o.cpu, o.cal))
			}
		}
		if len(lat) == 0 {
			continue
		}
		fmt.Fprintf(log, "kind %-8s n=%-5d %s_p50_ms=%.4f p90_ms=%.4f cpu_ms_p50=%.4f cpu_ref_ms_p50=%.4f\n",
			k, len(lat), k, windowed(lat, 50), percentile(lat, 90), median(cpu), median(ref))
	}
	per := float64(completed)
	if per == 0 {
		per = 1
	}
	return map[string]float64{
		"setup_s":          median(setupRef),
		"cpu_ms_per_req":   cpuPerReq,
		"alloc_kb_per_req": float64(u.alloc) / 1024 / per,
		"max_rss_mb":       rssMB,
	}
}

// timedOutcomes drops set-up requests.
func timedOutcomes(outs []*outcome) []*outcome {
	var t []*outcome
	for _, o := range outs {
		if !o.warm {
			t = append(t, o)
		}
	}
	return t
}

// coreConfig is the accelerator configuration scale.New(scale.Options{})
// builds, for direct calls into core and sched.
func coreConfig() core.Config {
	cfg, _ := core.ConfigForMACs(1024) // 1024 is a supported geometry
	cfg.Policy = sched.DegreeVertexAware
	return cfg
}

// redditScale returns the graph every Reddit workload uses — the reddit
// dataset's default build (931 vertices, ~458k edges, community structure),
// the graph the repository's Reddit-scale Go benchmarks use — plus seeded
// 602-wide feature matrices on a 1/8 grid, so their JSON stays short. The
// structure is fixed so that runs at different seeds do the same work; the
// seed draws the features, the request order and the mutations.
func redditScale(seed int64, variants int) (*graph.Graph, []int, []*tensor.Matrix) {
	d := graph.MustByName("reddit")
	g := d.Build()
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Matrix, variants)
	for i := range xs {
		xs[i] = gridMatrix(rng, g.NumVertices(), d.FeatureDims[0])
	}
	return g, d.FeatureDims, xs
}

// gridMatrix draws a rows×cols matrix of values k/8 in [-2, 2].
func gridMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.Intn(33)-16) / 8
	}
	return m
}

// edgeList returns g's edges as (src, dst) pairs in CSR order.
func edgeList(g *graph.Graph) [][2]int {
	var out [][2]int
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.InNeighbors(v) {
			out = append(out, [2]int{int(u), v})
		}
	}
	return out
}

// rowsOf splits a matrix into row slices (shared, not copied).
func rowsOf(m *tensor.Matrix) [][]float32 {
	rows := make([][]float32, m.Rows)
	for v := range rows {
		rows[v] = m.Row(v)
	}
	return rows
}

// probeMs runs fn reps times under probe spans and returns the median ms.
func probeMs(tr *tracer, name string, reps int, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		d, err := timed(tr, name, 0, fn)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		xs = append(xs, ms(d))
	}
	return median(xs), nil
}
