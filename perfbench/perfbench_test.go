package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"testing"
	"time"

	"scale"
	"scale/internal/serve"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {40, 75}, {50, 80}, {99, 80}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 && beyond(c.n, c.want) < 10 {
			t.Errorf("n=%d: p%g has %d samples beyond it", c.n, c.want, beyond(c.n, c.want))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 20: 1, 21: 2, 50: 3, 80: 4, 100: 5} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestWindowed(t *testing.T) {
	if got := windows(1000, 99); got != 1 {
		t.Errorf("windows(1000, p99) = %d, want 1: a third of it has only 3 beyond", got)
	}
	if got := windows(5000, 99); got != 5 {
		t.Errorf("windows(5000, p99) = %d, want 5", got)
	}
	if got := windows(3000, 99); got != 3 {
		t.Errorf("windows(3000, p99) = %d, want 3", got)
	}
	// 60 samples in three windows; a burst inflates the whole last window.
	var xs []float64
	for w := 0; w < 3; w++ {
		for i := 0; i < 20; i++ {
			v := float64(10 + i%5)
			if w == 2 {
				v *= 10
			}
			xs = append(xs, v)
		}
	}
	if got := windows(len(xs), 50); got != 3 {
		t.Fatalf("windows(60, p50) = %d, want 3", got)
	}
	if got := windowed(xs, 50); got != 12 {
		t.Errorf("windowed median = %g, want 12: the burst window must not set it", got)
	}
	if got := median(xs); got != 13 {
		t.Errorf("plain median = %g, want 13", got)
	}
}

func TestOpenLoopLatencyFromDue(t *testing.T) {
	due := time.Unix(100, 0)
	o := &outcome{due: due, sent: due.Add(3 * time.Millisecond), end: due.Add(5 * time.Millisecond), code: 200, checked: true}
	if got := o.latencyMs(); got != 5 {
		t.Errorf("latency = %g ms, want 5 (from the due time, not the send time)", got)
	}
	if got := o.latenessMs(); got != 3 {
		t.Errorf("lateness = %g ms, want 3", got)
	}
}

func TestFailureAccounting(t *testing.T) {
	at := time.Unix(0, 0)
	ok := func(code int, checked bool) *outcome {
		return &outcome{kind: "fp32", due: at, sent: at, end: at.Add(time.Millisecond), code: code, checked: checked}
	}
	outs := []*outcome{ok(200, true), ok(429, false), ok(500, false), ok(200, false)}
	attempted, failed := tally(outs)
	if attempted != 4 || failed != 3 {
		t.Fatalf("tally = %d attempted, %d failed; want 4, 3", attempted, failed)
	}
	l := latencies(outs, "fp32")
	if l[0] != 1 {
		t.Errorf("passing request latency = %g, want 1", l[0])
	}
	for i, v := range l[1:] {
		if v != failedLatencyMs {
			t.Errorf("failed request %d latency = %g, want it to miss every limit", i+1, v)
		}
	}
	if got := median(l); got != failedLatencyMs {
		t.Errorf("median with 3 of 4 failed = %g, want %g", got, failedLatencyMs)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	children := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 40},  // overlaps the first: counted once
		{Parent: 1, Start: 90, End: 120}, // clipped to the parent's end
		{Parent: 1, Start: -5, End: 5},   // clipped to the parent's start
	}
	if got := selfTime(parent, children); got != 55 {
		t.Errorf("selfTime = %d, want 55 (100 − 30 − 10 − 5)", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the driver %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, driver %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the driver %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no driver", w.Name)
		}
	}
}

// TestEncodeInferMatchesServer pins the byte-identity check itself: a
// reference encoded by encodeInfer equals the server's response bytes.
func TestEncodeInferMatchesServer(t *testing.T) {
	sim, err := scale.New(scale.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Sim: sim})
	defer srv.Close()
	edges := [][2]int{{0, 1}, {2, 1}, {1, 2}}
	feats := [][]float32{{1, 0}, {0, 1}, {1, 1}}
	body, err := json.Marshal(map[string]any{"model": "gin", "dims": []int{2, 3}, "num_vertices": 3, "edges": edges, "features": feats})
	if err != nil {
		t.Fatal(err)
	}
	code, got := post(context.Background(), srv.Handler(), "/v1/infer", "application/json", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	rows, err := sim.Infer("gin", []int{2, 3}, 3, edges, feats)
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeInfer("gin", "fp32", rows); string(got) != string(want) {
		t.Errorf("server bytes %q, reference bytes %q", got, want)
	}
}

func TestCheckInt8(t *testing.T) {
	ref := [][]float32{{1, -2}, {0.5, 4}}
	near := encodeInfer("gcn", "int8", [][]float32{{1.1, -2}, {0.5, 3.8}})
	if err := checkInt8(near, ref); err != nil {
		t.Errorf("within 8%% of max |ref|: %v", err)
	}
	far := encodeInfer("gcn", "int8", [][]float32{{1, -2}, {0.5, 3.5}})
	if err := checkInt8(far, ref); err == nil {
		t.Error("0.5 error on max |ref| 4 passed the 8% bound")
	}
	if err := checkInt8(encodeInfer("gcn", "fp32", ref), ref); err == nil {
		t.Error("an fp32 response passed the int8 check")
	}
}

func TestClosedCPUPerReq(t *testing.T) {
	msec := time.Millisecond
	done := func(kind string, cpu, cal time.Duration) *outcome {
		return &outcome{kind: kind, code: 200, checked: true, cpu: cpu, cal: cal}
	}
	outs := []*outcome{
		done("a", 20*msec, 20*msec),                  // 10 ms at the reference speed
		done("a", 10*msec, 10*msec),                  // 10
		done("a", 90*msec, 10*msec),                  // 90: a stall the median leaves out
		done("b", 50*msec, 5*msec),                   // 100
		{kind: "b", code: 429, cpu: msec, cal: msec}, // failed: not counted
	}
	// The kinds weigh 3:1 as in the generated sequence, whatever the window held.
	reqs := []request{{kind: "a"}, {kind: "b"}, {kind: "a"}, {kind: "a"}}
	if got, want := closedCPUPerReq(outs, reqs), (3*10.0+100)/4; math.Abs(got-want) > 1e-9 {
		t.Errorf("closedCPUPerReq = %g, want %g", got, want)
	}
}

func TestOpenCPUPerReq(t *testing.T) {
	msec, t0 := time.Millisecond, time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	samples := []calSample{
		{at: at(0), proc: 0, cal: 10 * msec},
		{at: at(1), proc: 110 * msec, cal: 10 * msec}, // (110−0−10)/4 at cal 10: 25
		{at: at(2), proc: 330 * msec, cal: 30 * msec}, // (330−110−10)/3 at cal 20: 35
		{at: at(3), proc: 660 * msec, cal: 30 * msec}, // (660−330−30)/2 at cal 30: 50
		{at: at(4), proc: 700 * msec, cal: 30 * msec}, // nothing completed: skipped
	}
	var outs []*outcome
	for _, s := range []float64{0, 0.2, 0.4, 0.6, 1, 1.5, 1.9, 2.5, 2.9} {
		outs = append(outs, &outcome{end: at(s), code: 200, checked: true})
	}
	outs = append(outs,
		&outcome{end: at(0.5), code: 500},                            // failed: not counted
		&outcome{end: at(0.5), code: 200, checked: true, warm: true}, // set-up: not counted
	)
	if got := openCPUPerReq(samples, outs); math.Abs(got-35) > 1e-9 {
		t.Errorf("openCPUPerReq = %g, want 35, the median slice", got)
	}
}

func TestCalibratorAllocatesNothing(t *testing.T) {
	c := newCalibrator()
	defer c.close()
	if d := c.sample(); d <= 0 {
		t.Fatalf("calibration sample = %v, want > 0", d)
	}
	if n := testing.AllocsPerRun(3, func() { c.sample() }); n != 0 {
		t.Errorf("a calibration sample allocates %g times; it must leave alloc_kb_per_req alone", n)
	}
}
