package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scale/internal/graph"
	"scale/internal/tensor"
)

// A user-authored layer: degree-weighted mean of raw features followed by a
// linear update — built from closures, validated against a hand computation.
func customMeanLayer(t *testing.T, in, out int) Layer {
	rng := rand.New(rand.NewSource(99))
	w := tensor.GlorotMatrix(rng, in, out)
	l, err := NewCustomLayer(CustomSpec{
		Name: "custom-mean", InDim: in, MsgDim: in, OutDim: out,
		Reduce: ReduceMean,
		UpdateInto: func(dst, hself, agg []float32) {
			tensor.VecMatInto(dst, agg, w)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestCustomLayerRuns(t *testing.T) {
	g := graph.Star(4)
	l := customMeanLayer(t, 3, 2)
	m, err := CustomModel("custom", l)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix(4, 3)
	leaf := []float32{0.3, 0.6, -0.9}
	for v := 1; v < 4; v++ {
		copy(x.Row(v), leaf)
	}
	outs, err := Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	// The hub's mean over identical leaves is the leaf itself.
	single, _ := Forward(m, graph.Star(2), tensor.FromRows([][]float32{{0, 0, 0}, leaf}))
	for i := range outs[0].Row(0) {
		if math.Abs(float64(outs[0].Row(0)[i]-single[0].Row(0)[i])) > 1e-5 {
			t.Fatal("custom mean layer not averaging")
		}
	}
	if m.Name() != "custom" || l.Name() != "custom-mean" {
		t.Fatal("names lost")
	}
}

func TestCustomLayerDefaults(t *testing.T) {
	l, err := NewCustomLayer(CustomSpec{
		InDim: 4, MsgDim: 4, OutDim: 2,
		UpdateInto: func(dst, hself, agg []float32) { copy(dst, agg[:2]) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "custom" {
		t.Fatalf("default name %q", l.Name())
	}
	w := l.Work()
	if w.ReduceOpsPerEdge != 4 || w.UpdateMACsPerVertex != 10 {
		t.Fatalf("derived work wrong: %+v", w)
	}
	// Identity prepare, copy message.
	h := tensor.FromRows([][]float32{{1, 2, 3, 4}})
	psrc, pdst := l.Prepare(h, 1)
	if psrc != h {
		t.Fatal("identity prepare should pass through")
	}
	acc := make([]float32, 4)
	l.AccumulateEdge(acc, h.Row(0), nil, make([]float32, 4), EdgeContext{})
	if acc[3] != 4 {
		t.Fatal("copy message broken")
	}
	if pdst != nil {
		t.Fatal("nil dest prepare expected")
	}
}

func TestCustomLayerValidation(t *testing.T) {
	upd := func(dst, hself, agg []float32) { copy(dst, agg) }
	cases := []CustomSpec{
		{InDim: 0, MsgDim: 1, OutDim: 1, UpdateInto: upd}, // bad dim
		{InDim: 2, MsgDim: 2, OutDim: 2},                  // missing update
		{InDim: 2, MsgDim: 3, OutDim: 2, UpdateInto: upd}, // identity prepare mismatch
	}
	for i, spec := range cases {
		if _, err := NewCustomLayer(spec); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
}

// A custom Prepare whose result is not |V|×MsgDim sources (plus nil or |V|
// destination rows) panics with the layer name and both shapes when the
// layer runs, instead of leaving message columns unwritten.
func TestCustomPrepareShapeChecked(t *testing.T) {
	g := graph.Star(4)
	x := RandomFeatures(g, 4, 1)
	cases := []struct {
		name    string
		prepare func(h *tensor.Matrix) (psrc, pdst *tensor.Matrix)
		shapes  string
	}{
		{"narrow-src", func(h *tensor.Matrix) (psrc, pdst *tensor.Matrix) {
			return tensor.NewMatrix(h.Rows, 3), nil
		}, "psrc Matrix(4x3) and pdst <nil>"},
		{"short-src", func(h *tensor.Matrix) (psrc, pdst *tensor.Matrix) {
			return tensor.NewMatrix(h.Rows-1, 4), nil
		}, "psrc Matrix(3x4) and pdst <nil>"},
		{"short-dst", func(h *tensor.Matrix) (psrc, pdst *tensor.Matrix) {
			return h, tensor.NewMatrix(h.Rows-1, 2)
		}, "psrc Matrix(4x4) and pdst Matrix(3x2)"},
	}
	for _, tc := range cases {
		l, err := NewCustomLayer(CustomSpec{
			Name: tc.name, InDim: 4, MsgDim: 4, OutDim: 4,
			Prepare:    tc.prepare,
			UpdateInto: func(dst, hself, agg []float32) { copy(dst, agg) },
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := CustomModel("shape", l)
		if err != nil {
			t.Fatal(err)
		}
		got := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			_, err := Forward(m, g, x)
			t.Errorf("%s: Forward returned %v, want a panic", tc.name, err)
			return ""
		}()
		want := fmt.Sprintf("gnn: custom layer %q: Prepare returned %s for 4 vertices; want psrc 4x4 and pdst nil or 4 rows",
			tc.name, tc.shapes)
		if got != want {
			t.Errorf("%s: panic %q, want %q", tc.name, got, want)
		}
	}
}

func TestCustomModelValidation(t *testing.T) {
	a := customMeanLayer(t, 4, 3)
	b := customMeanLayer(t, 5, 2) // mismatched chain
	if _, err := CustomModel("bad", a, b); err == nil {
		t.Fatal("dim mismatch must error")
	}
	if _, err := CustomModel("empty"); err == nil {
		t.Fatal("empty model must error")
	}
	good := customMeanLayer(t, 3, 3)
	if _, err := CustomModel("ok", customMeanLayer(t, 4, 3), good); err != nil {
		t.Fatal(err)
	}
}
