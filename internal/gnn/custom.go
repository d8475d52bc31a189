package gnn

import (
	"fmt"

	"scale/internal/tensor"
)

// CustomSpec defines a user-authored message passing layer from the three
// Eq. 1–2 pieces — message function, commutative reduction, update function
// — the same surface DGL and PyTorch Geometric expose (§II-A). Any layer
// expressible this way runs on SCALE's fused dataflow unchanged: the only
// hard requirement is that Reduce is commutative and associative, which the
// ring's chained reduction relies on (§III-B).
type CustomSpec struct {
	// Name labels the layer.
	Name string
	// InDim, MsgDim, OutDim are the feature widths.
	InDim, MsgDim, OutDim int
	// Reduce is the aggregation reduction.
	Reduce ReduceKind
	// Prepare optionally transforms all vertex features h into per-source
	// message inputs psrc (|V|×MsgDim) and per-destination rows pdst for
	// Message (|V| rows, or nil). Nil passes h through as psrc with no
	// pdst, requiring MsgDim == InDim. Other shapes panic when the layer
	// runs.
	Prepare func(h *tensor.Matrix) (psrc, pdst *tensor.Matrix)
	// Message writes one edge's message into out (width
	// Reduce.AccWidth(MsgDim)); nil copies the prepared source row.
	Message func(out, psrc, pdst []float32, ctx EdgeContext)
	// Accumulate optionally fuses Message with the reduction: it folds one
	// edge's message into acc without materializing it. Nil falls back to
	// Message followed by Reduce.Accumulate (using caller scratch, still
	// allocation-free). Must be bit-identical to the unfused pair.
	Accumulate func(acc, psrc, pdst []float32, ctx EdgeContext)
	// UpdateInto combines a vertex's input features with its finalized
	// aggregation into the output row dst (length OutDim). Required.
	UpdateInto func(dst, hself, agg []float32)
	// Work characterizes the hardware workload for the timing models; the
	// zero value derives a copy-message/sum-reduce estimate from the dims.
	Work LayerWork
}

// NewCustomLayer validates the spec and returns a Layer usable everywhere a
// built-in model layer is: the golden reference, the SCALE functional
// executor, and every accelerator timing model.
func NewCustomLayer(spec CustomSpec) (Layer, error) {
	if spec.InDim < 1 || spec.OutDim < 1 || spec.MsgDim < 1 {
		return nil, fmt.Errorf("gnn: custom layer %q: dims must be positive", spec.Name)
	}
	if spec.UpdateInto == nil {
		return nil, fmt.Errorf("gnn: custom layer %q: UpdateInto is required", spec.Name)
	}
	if spec.Prepare == nil && spec.MsgDim != spec.InDim {
		return nil, fmt.Errorf("gnn: custom layer %q: identity Prepare needs MsgDim == InDim", spec.Name)
	}
	w := spec.Work
	if w == (LayerWork{}) {
		w = LayerWork{
			InDim: spec.InDim, MsgDim: spec.MsgDim, OutDim: spec.OutDim,
			ReduceOpsPerEdge:    int64(spec.MsgDim),
			UpdateMACsPerVertex: int64(spec.InDim)*int64(spec.OutDim) + int64(spec.OutDim),
			WeightBytes:         4 * int64(spec.InDim) * int64(spec.OutDim),
		}
	}
	w.InDim, w.MsgDim, w.OutDim = spec.InDim, spec.MsgDim, spec.OutDim
	return &customLayer{spec: spec, work: w}, nil
}

// CustomModel wraps custom layers into a Model.
func CustomModel(name string, layers ...Layer) (*Model, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("gnn: custom model %q has no layers", name)
	}
	for i := 1; i < len(layers); i++ {
		if layers[i].InDim() != layers[i-1].OutDim() {
			return nil, fmt.Errorf("gnn: custom model %q: layer %d input %d != layer %d output %d",
				name, i, layers[i].InDim(), i-1, layers[i-1].OutDim())
		}
	}
	return &Model{ModelName: name, Layers: layers}, nil
}

type customLayer struct {
	spec CustomSpec
	work LayerWork
}

func (l *customLayer) Name() string {
	if l.spec.Name != "" {
		return l.spec.Name
	}
	return "custom"
}
func (l *customLayer) InDim() int         { return l.spec.InDim }
func (l *customLayer) OutDim() int        { return l.spec.OutDim }
func (l *customLayer) MsgDim() int        { return l.spec.MsgDim }
func (l *customLayer) Reduce() ReduceKind { return l.spec.Reduce }

// Prepare runs the spec's Prepare serially (workers is ignored) and holds
// its result to the shapes AccumulateEdge reads.
func (l *customLayer) Prepare(h *tensor.Matrix, workers int) (psrc, pdst *tensor.Matrix) {
	if l.spec.Prepare == nil {
		return h, nil
	}
	psrc, pdst = l.spec.Prepare(h)
	if psrc == nil || psrc.Rows != h.Rows || psrc.Cols != l.spec.MsgDim || (pdst != nil && pdst.Rows != h.Rows) {
		panic(fmt.Sprintf("gnn: custom layer %q: Prepare returned psrc %v and pdst %v for %d vertices; want psrc %dx%d and pdst nil or %d rows",
			l.Name(), psrc, pdst, h.Rows, h.Rows, l.spec.MsgDim, h.Rows))
	}
	return psrc, pdst
}

func (l *customLayer) AccumulateEdge(acc, psrc, pdst, msg []float32, ctx EdgeContext) {
	switch {
	case l.spec.Accumulate != nil:
		l.spec.Accumulate(acc, psrc, pdst, ctx)
		return
	case l.spec.Message != nil:
		l.spec.Message(msg, psrc, pdst, ctx)
	default:
		copy(msg, psrc)
	}
	l.spec.Reduce.Accumulate(acc, msg)
}

func (l *customLayer) UpdateInto(dst, hself, agg, scratch []float32) {
	l.spec.UpdateInto(dst, hself, agg)
}

func (l *customLayer) UpdateScratch() int { return 0 }

func (l *customLayer) Work() LayerWork { return l.work }
