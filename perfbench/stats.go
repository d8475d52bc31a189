package main

import (
	"math"
	"sort"
	"time"
)

// failedLatencyMs is the latency a failed request is recorded with: it sorts
// above every real sample, so a failure misses every latency limit.
const failedLatencyMs = 1e9

// tailLadder lists the tail percentiles the benchmark may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 80, 75, 50}

// rank returns the 0-based nearest-rank index of percentile p in n samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1 // 1e-9 absorbs float error in p·n/100
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond counts the samples ranked above percentile p in n samples.
func beyond(n int, p float64) int { return n - rank(n, p) - 1 }

// tailPercentile returns the highest ladder percentile that has at least ten
// samples beyond it in n samples, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n > 0 && beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of xs (not modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// windows is the number of consecutive windows, odd and at most five, that
// n samples split into while each window keeps ten samples beyond
// percentile p.
func windows(n int, p float64) int {
	for k := 5; k > 1; k -= 2 {
		if beyond(n/k, p) >= 10 {
			return k
		}
	}
	return 1
}

// windowed is percentile p of xs (in arrival order) taken in each of
// windows(len(xs), p) consecutive windows, and the median of those. A stall
// of the host hits one window, so a run's figure does not hinge on a single
// burst.
func windowed(xs []float64, p float64) float64 {
	k := windows(len(xs), p)
	var per []float64
	for w := 0; w < k; w++ {
		per = append(per, percentile(xs[w*len(xs)/k:(w+1)*len(xs)/k], p))
	}
	return median(per)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// outcome is one request as the load generator saw it. Latency runs from the
// request's due time: in an open loop that is its scheduled arrival, so a
// stall also charges the requests queued behind it; in a closed loop it is
// the send time.
type outcome struct {
	kind    string
	due     time.Time
	sent    time.Time
	end     time.Time
	code    int
	checked bool // the response passed its correctness check
	hash    uint64
	cpu     time.Duration // closed loops: process CPU time across the request
	version int           // resident-rw: mutation batches applied before this request
	warm    bool          // a set-up request: checked and counted, not in latency stats
	aux     int           // workload-specific input index
	cal     time.Duration // closed loops: the calibration kernel's CPU time beside the request
}

// failed reports whether the request counts against error_rate: any non-200
// answer (a 429 included) or a response that failed its check.
func (o *outcome) failed() bool { return o.code != 200 || !o.checked }

// latencyMs is the request's latency from its due time, or failedLatencyMs.
func (o *outcome) latencyMs() float64 {
	if o.failed() {
		return failedLatencyMs
	}
	return ms(o.end.Sub(o.due))
}

// latenessMs is how late the generator sent the request.
func (o *outcome) latenessMs() float64 { return ms(o.sent.Sub(o.due)) }

// latencies returns the latencies of outcomes whose kind is in kinds (all
// outcomes when kinds is empty).
func latencies(outs []*outcome, kinds ...string) []float64 {
	var out []float64
	for _, o := range outs {
		if len(kinds) == 0 || contains(kinds, o.kind) {
			out = append(out, o.latencyMs())
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// tally counts attempted and failed requests.
func tally(outs []*outcome) (attempted, failed int) {
	for _, o := range outs {
		attempted++
		if o.failed() {
			failed++
		}
	}
	return attempted, failed
}
