package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The host this benchmark runs on is a small virtual machine on a shared
// machine, and its speed drifts: over one minute the same request's CPU
// time moved by a third, with neighbours' load on the cores and caches the
// vCPUs share. CPU time per request measures instructions times their
// speed, so it carries that drift. The calibrator measures the speed
// beside each sample: it runs a fixed kernel of the benchmark's own and
// times it in its threads' CPU time. Dividing a request's CPU time by the
// kernel's CPU time taken next to it cancels the host's speed; multiplying
// by calRefMs puts the ratio back in milliseconds, the CPU time on a host
// where the kernel takes calRefMs. The kernel does not call the repository's
// code, so a change to the program moves the request's time and not the
// kernel's.
const calRefMs = 10.0

// Calibration kernel shape: a GCN-style layer over fixed synthetic data —
// gather-and-sum of calDeg rows of a calVerts×calIn feature matrix (2.2 MB,
// the size of the Reddit-scale workloads' features) for each of calRows
// destination rows, then a calIn×calOut dense update.
const (
	calVerts = 931
	calIn    = 602
	calOut   = 64
	calRows  = 192
	calDeg   = 48
)

// calibrator runs the calibration kernel split across one locked OS thread
// per P, the parallelism the program's forward passes use, so a sample sees
// every vCPU the requests run on: a host that slows or steals from one vCPU
// more than another moves the kernel as it moves the requests. Buffers are
// allocated once, so a sample allocates nothing and leaves the allocation
// metrics alone.
type calibrator struct {
	x, w    []float32
	src     []int32
	workers []*calWorker
	wg      sync.WaitGroup
}

// calWorker is one calibrator thread; it runs kernel rows first,
// first+stride, and so on.
type calWorker struct {
	req           chan struct{}
	resp          chan time.Duration
	first, stride int
	acc, out      []float32
	sink          float32
}

// newCalibrator builds the kernel's data from a fixed seed (not --seed: the
// reference must be the same in every run) and starts its threads.
func newCalibrator() *calibrator {
	c := &calibrator{
		x:   make([]float32, calVerts*calIn),
		w:   make([]float32, calIn*calOut),
		src: make([]int32, calRows*calDeg),
	}
	s := uint32(12345)
	next := func() uint32 { s = s*1664525 + 1013904223; return s }
	for i := range c.x {
		c.x[i] = float32(int(next()>>24)-128) / 64
	}
	for i := range c.w {
		c.w[i] = float32(int(next()>>24)-128) / 1024
	}
	for i := range c.src {
		c.src[i] = int32(next() % calVerts)
	}
	n := runtime.GOMAXPROCS(0)
	for i := 0; i < n; i++ {
		w := &calWorker{
			req: make(chan struct{}), resp: make(chan time.Duration),
			first: i, stride: n,
			acc: make([]float32, calIn), out: make([]float32, calOut),
		}
		c.workers = append(c.workers, w)
		c.wg.Add(1)
		go c.loop(w)
	}
	c.sample() // the first pass warms the caches and the threads
	return c
}

func (c *calibrator) loop(w *calWorker) {
	defer c.wg.Done()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for range w.req {
		t0 := threadCPU()
		c.kernel(w)
		w.resp <- threadCPU() - t0
	}
}

// sample runs the kernel once and returns the CPU time its threads took.
func (c *calibrator) sample() time.Duration {
	for _, w := range c.workers {
		w.req <- struct{}{}
	}
	var total time.Duration
	for _, w := range c.workers {
		total += <-w.resp
	}
	return total
}

// close stops the calibrator's threads and waits for them to exit.
func (c *calibrator) close() {
	for _, w := range c.workers {
		close(w.req)
	}
	c.wg.Wait()
}

func (c *calibrator) kernel(w *calWorker) {
	var sum float32
	for v := w.first; v < calRows; v += w.stride {
		clear(w.acc)
		for _, u := range c.src[v*calDeg : (v+1)*calDeg] {
			row := c.x[int(u)*calIn : int(u+1)*calIn]
			for i, a := range row {
				w.acc[i] += a
			}
		}
		clear(w.out)
		for i, a := range w.acc {
			wr := c.w[i*calOut : (i+1)*calOut]
			for j, b := range wr {
				w.out[j] += a * b
			}
		}
		sum += w.out[0]
	}
	w.sink += sum
}

// threadCPU is the calling OS thread's user plus system CPU time (Linux).
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// atRef scales CPU time d, taken where the kernel took cal, to the
// reference speed, in milliseconds.
func atRef(d, cal time.Duration) float64 {
	if cal <= 0 {
		return ms(d)
	}
	return ms(d) * calRefMs / ms(cal)
}

// calEvery is the open loop's calibration period: a slice between two
// calibrations holds about 75 requests at smallRate, and the host's speed
// holds within one.
const calEvery = 500 * time.Millisecond

// calSample is one calibration taken during the open loop: when it started,
// the process's CPU time then, and the kernel's CPU time.
type calSample struct {
	at   time.Time
	proc time.Duration
	cal  time.Duration
}

// calibrateEvery samples the calibrator now, every period after, and once
// more when stop closes, and returns the samples.
func calibrateEvery(cal *calibrator, period time.Duration, stop <-chan struct{}) []calSample {
	tick := time.NewTicker(period)
	defer tick.Stop()
	var out []calSample
	take := func() {
		s := calSample{at: time.Now(), proc: cpuTime()}
		s.cal = cal.sample()
		out = append(out, s)
	}
	take()
	for {
		select {
		case <-tick.C:
			take()
		case <-stop:
			take()
			return out
		}
	}
}

// closedCPUPerReq is a closed loop's CPU time per request at the reference
// speed: per kind, the median over completed requests of each one's CPU time
// scaled by the calibration beside it, weighted by the kind's share of the
// generated sequence reqs. Medians keep a GC cycle or a host stall out of
// the figure; fixed shares keep it from depending on which kinds the window
// happened to end among.
func closedCPUPerReq(outs []*outcome, reqs []request) float64 {
	count := make(map[string]int)
	var kinds []string
	for _, r := range reqs {
		if count[r.kind] == 0 {
			kinds = append(kinds, r.kind)
		}
		count[r.kind]++
	}
	per := make(map[string][]float64)
	for _, o := range outs {
		if !o.warm && !o.failed() {
			per[o.kind] = append(per[o.kind], atRef(o.cpu, o.cal))
		}
	}
	var sum, weight float64
	for _, k := range kinds {
		if xs := per[k]; len(xs) > 0 {
			w := float64(count[k])
			sum += w * median(xs)
			weight += w
		}
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

// openCPUPerReq is the open loop's CPU time per request at the reference
// speed. Requests overlap there, so only the process's total CPU time is
// measurable: for each slice between consecutive calibrations, that total
// less the kernel's own CPU time, per request completed in the slice,
// scaled by the mean of the slice's two calibrations; the median over
// slices.
func openCPUPerReq(samples []calSample, outs []*outcome) float64 {
	var per []float64
	for j := 0; j+1 < len(samples); j++ {
		a, b := samples[j], samples[j+1]
		n := 0
		for _, o := range outs {
			if !o.warm && !o.failed() && !o.end.Before(a.at) && o.end.Before(b.at) {
				n++
			}
		}
		if n > 0 {
			per = append(per, atRef((b.proc-a.proc-a.cal)/time.Duration(n), (a.cal+b.cal)/2))
		}
	}
	return median(per)
}
