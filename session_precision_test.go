package scale

import (
	"errors"
	"math"
	"testing"

	"scale/internal/fault"
)

// NewSessionPrecision: "" and "fp32" are the default tier, "int8" the
// quantized one, anything else a typed input error.
func TestNewSessionPrecisionValidation(t *testing.T) {
	sim, _ := New(Options{})
	for _, p := range []string{"", "fp32", "int8"} {
		sess, err := sim.NewSessionPrecision("gcn", []int{4, 8, 4}, p)
		if err != nil {
			t.Fatalf("precision %q: %v", p, err)
		}
		want := p
		if want == "" {
			want = "fp32"
		}
		if sess.Precision() != want {
			t.Fatalf("precision %q reported as %q", p, sess.Precision())
		}
	}
	_, err := sim.NewSessionPrecision("gcn", []int{4, 8, 4}, "fp64")
	if err == nil || !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("unknown precision: err = %v, want ErrBadConfig", err)
	}
	if !fault.IsInput(err) {
		t.Fatalf("precision rejection should classify as input error: %v", err)
	}
}

// Precision statistics: fp32 sessions report full float32 footprint; int8
// sessions report the quantized weight mix (every built-in layer quantizes,
// so exactly 1 byte per weight element).
func TestSessionPrecisionStats(t *testing.T) {
	sim, _ := New(Options{})
	fp, err := sim.NewSession("gcn", []int{4, 8, 4})
	if err != nil {
		t.Fatal(err)
	}
	if c, b := fp.PrecisionStats(); c != 1 || b != 4 {
		t.Fatalf("fp32 stats = (%g, %g), want (1, 4)", c, b)
	}
	q, err := sim.NewSessionPrecision("gcn", []int{4, 8, 4}, "int8")
	if err != nil {
		t.Fatal(err)
	}
	if c, b := q.PrecisionStats(); c != 0.25 || b != 1 {
		t.Fatalf("int8 stats = (%g, %g), want (0.25, 1)", c, b)
	}
}

// An int8 session must track the float tier within a small fraction of the
// output range (the tight per-layer bound is pinned in internal/core's
// accuracy harness) while actually running quantized kernels (outputs not
// bit-identical), and fp32 sessions built after int8 ones must stay
// bit-identical to a fresh simulator's — quantization is strictly opt-in.
func TestSessionInt8ApproximatesFp32(t *testing.T) {
	sim, _ := New(Options{})
	edges, features := randGraph(13, 60, 4, 8)

	qsess, err := sim.NewSessionPrecision("gcn", []int{8, 12, 5}, "int8")
	if err != nil {
		t.Fatal(err)
	}
	got, err := qsess.Infer(60, edges, features)
	if err != nil {
		t.Fatal(err)
	}

	want, err := sim.Infer("gcn", []int{8, 12, 5}, 60, edges, features)
	if err != nil {
		t.Fatal(err)
	}

	var maxRef, maxDiff float64
	for v := range want {
		for j := range want[v] {
			if a := math.Abs(float64(want[v][j])); a > maxRef {
				maxRef = a
			}
			if d := math.Abs(float64(want[v][j] - got[v][j])); d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff > 0.08*maxRef+1e-5 {
		t.Fatalf("int8 session error %g vs max ref %g", maxDiff, maxRef)
	}
	if maxDiff == 0 {
		t.Fatal("int8 session bit-identical to fp32 — quantized path not engaged")
	}

	// fp32 after int8: the int8 session shares this simulator's accelerator
	// and its pooled forward state, which must not leak into the default
	// tier.
	fresh, _ := New(Options{})
	ref, err := fresh.Infer("gcn", []int{8, 12, 5}, 60, edges, features)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sim.Infer("gcn", []int{8, 12, 5}, 60, edges, features)
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqual(t, ref, again)
}
