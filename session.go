package scale

import (
	"context"
	"fmt"

	"scale/internal/core"
	"scale/internal/fault"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/quant"
	"scale/internal/tensor"
)

// Session pins one (model, dims, precision) inference configuration to a
// Simulator: the gnn.Model — weight matrices, fused kernels, per-layer seeds
// — is built once at session creation and reused by every subsequent call,
// and the underlying accelerator's pooled forward state (schedulers, worker
// scratch, seen tables) warms up across calls. Simulator.Infer rebuilds all
// of this per call; a Session amortizes it, which is what makes the serving
// layer (internal/serve) viable under sustained traffic.
//
// A Session is safe for concurrent use: the model is immutable after
// construction and all per-call state lives in the accelerator's sync.Pool.
type Session struct {
	accel     *core.SCALE
	model     *gnn.Model
	name      string
	dims      []int
	precision core.Precision
	plan      quant.Plan
}

// NewSession builds the model once and returns a reusable inference session
// at the default float32 precision. The dims chain is copied; the session
// never aliases caller memory.
func (s *Simulator) NewSession(model string, dims []int) (*Session, error) {
	return s.NewSessionPrecision(model, dims, "")
}

// NewSessionPrecision is NewSession with an execution precision: "" or
// "fp32" selects the float32 tier (bit-identical to NewSession), "int8" the
// quantized tier. For int8 sessions the quantized weight form of every layer
// is materialized here, once, so the first request pays no quantization
// cost; unknown precisions are typed input errors (fault.ErrBadConfig).
func (s *Simulator) NewSessionPrecision(model string, dims []int, precision string) (*Session, error) {
	prec, err := core.ParsePrecision(precision)
	if err != nil {
		return nil, err
	}
	accel, err := s.accelFor(prec)
	if err != nil {
		return nil, err
	}
	m, err := gnn.NewModel(model, dims, 1)
	if err != nil {
		return nil, err
	}
	if prec == core.PrecisionInt8 {
		if err := gnn.QuantizeModel(m); err != nil {
			return nil, err
		}
	}
	return &Session{
		accel:     accel,
		model:     m,
		name:      model,
		dims:      append([]int(nil), dims...),
		precision: prec,
		plan:      sessionPlan(m, prec),
	}, nil
}

// sessionPlan derives the session's precision-mix statistics as an
// internal/quant footprint plan over the model's weight elements: the
// quantized fraction is the share of weight bytes (float32 footprint) held
// by layers that materialized an int8 form, so Compression/AvgBytes report
// what the session actually runs — 1.0/4B for fp32 sessions, below that for
// int8 ones (exactly 0.25/1B when every layer quantizes).
func sessionPlan(m *gnn.Model, prec core.Precision) quant.Plan {
	plan := quant.Plan{LowBytes: 1, HighBytes: 4}
	if prec != core.PrecisionInt8 {
		return plan
	}
	var total, quantized int64
	for _, l := range m.Layers {
		wb := l.Work().WeightBytes
		total += wb
		if gnn.LayerQuantized(l) {
			quantized += wb
		}
	}
	if total > 0 {
		plan.QuantizedFraction = float64(quantized) / float64(total)
	}
	return plan
}

// Model returns the session's model name.
func (sess *Session) Model() string { return sess.name }

// NumLayers returns the number of message-passing layers in the session's
// model (len(dims) − 1).
func (sess *Session) NumLayers() int { return len(sess.model.Layers) }

// LayerDims returns the model's feature-length chain: LayerDims()[li] is the
// input width of layer li and LayerDims()[li+1] its output width. The sharded
// serving tier sizes halo-exchange frames from it.
func (sess *Session) LayerDims() []int { return sess.model.Dims() }

// ForwardLayerCSR executes exactly one layer of the session's model over an
// already-materialized CSR graph, returning the full |V|×OutDim output
// matrix. degrees optionally overrides the structural degree message
// functions see per vertex (nil = g's own in-degrees).
//
// This is the shard-worker primitive of the sharded serving tier
// (internal/shard): each worker holds the subgraph of its owned vertices
// plus halo copies of remote in-neighbors and advances one layer per call,
// passing global degrees so halo sources normalize exactly as an unsharded
// pass would. Outside that context, prefer Infer/InferBatch.
func (sess *Session) ForwardLayerCSR(ctx context.Context, layer int, g *graph.Graph, x *tensor.Matrix, degrees []int32, workers int) (*tensor.Matrix, error) {
	return sess.accel.ForwardLayerContext(ctx, sess.model, layer, g, x, degrees, workers)
}

// Dims returns a copy of the session's feature-length chain.
func (sess *Session) Dims() []int { return append([]int(nil), sess.dims...) }

// Precision returns the session's execution precision ("fp32" or "int8").
func (sess *Session) Precision() string { return string(sess.precision) }

// PrecisionStats reports the session's weight-footprint statistics:
// compression is the byte ratio versus full float32 (1 = full precision,
// 0.25 = fully int8) and avgBytes the average bytes per weight element. The
// serving layer exposes both as per-session gauges on /metrics.
func (sess *Session) PrecisionStats() (compression, avgBytes float64) {
	return sess.plan.Compression(), sess.plan.AvgBytes()
}

// InferGraph runs one functional forward pass over an already-materialized
// CSR graph and feature matrix, returning the final-layer embeddings. It is
// the dynamic-graph serving primitive: the serving tier snapshots a
// dyn.Graph (View) and infers on the frozen snapshot without re-encoding it
// through an edge list. workers bounds row-level parallelism (0 = all
// cores); fp32 results are bit-identical for every worker count.
func (sess *Session) InferGraph(ctx context.Context, g *graph.Graph, x *tensor.Matrix, workers int) ([][]float32, error) {
	if err := sess.validateMatrix(g, x); err != nil {
		return nil, err
	}
	outs, err := sess.accel.ForwardContext(ctx, sess.model, g, x, workers)
	if err != nil {
		return nil, err
	}
	return copyRows(outs[len(outs)-1]), nil
}

// InferSampled runs one forward pass with a distinct graph per layer —
// GraphSAGE-style fixed-fanout sampled inference, where layer li aggregates
// over layers[li] (a fanout-capped subgraph drawn by dyn.Sampler). Every
// layer graph must cover the same vertex set. Each layer executes with the
// layer graph's own in-degrees (nil degrees override), so mean-style
// aggregation normalizes by the sampled neighborhood size, as GraphSAGE
// specifies. Results are bit-identical across worker counts: the sampled
// graphs depend only on (seed, layer, vertex) and the fp32 engine is
// worker-count invariant.
func (sess *Session) InferSampled(ctx context.Context, layers []*graph.Graph, x *tensor.Matrix, workers int) ([][]float32, error) {
	if len(layers) != len(sess.model.Layers) {
		return nil, fmt.Errorf("scale: %d sampled graphs for %d layers: %w", len(layers), len(sess.model.Layers), fault.ErrBadGraph)
	}
	if err := sess.validateMatrix(layers[0], x); err != nil {
		return nil, err
	}
	h := x
	for li, g := range layers {
		if g.NumVertices() != x.Rows {
			return nil, fmt.Errorf("scale: layer %d graph has %d vertices, want %d: %w", li, g.NumVertices(), x.Rows, fault.ErrBadGraph)
		}
		var err error
		h, err = sess.accel.ForwardLayerContext(ctx, sess.model, li, g, h, nil, workers)
		if err != nil {
			return nil, err
		}
	}
	return copyRows(h), nil
}

// validateMatrix checks a materialized (graph, features) pair against the
// session's input dimension with the same typed sentinels as
// InferRequest.Validate.
func (sess *Session) validateMatrix(g *graph.Graph, x *tensor.Matrix) error {
	if g.NumVertices() < 1 {
		return fmt.Errorf("scale: need at least one vertex, got %d: %w", g.NumVertices(), fault.ErrBadGraph)
	}
	if x.Rows != g.NumVertices() {
		return fmt.Errorf("scale: %d feature rows for %d vertices: %w", x.Rows, g.NumVertices(), fault.ErrBadShape)
	}
	if x.Cols != sess.dims[0] {
		return fmt.Errorf("scale: feature width %d, model wants %d: %w", x.Cols, sess.dims[0], fault.ErrBadShape)
	}
	return nil
}

// copyRows detaches a matrix into per-vertex row slices.
func copyRows(m *tensor.Matrix) [][]float32 {
	rows := make([][]float32, m.Rows)
	for v := range rows {
		rows[v] = append([]float32(nil), m.Row(v)...)
	}
	return rows
}

// InferRequest is one graph + feature matrix input to Session inference.
// Edges are directed src→dst aggregation edges; Features is row-major
// NumVertices×dims[0].
type InferRequest struct {
	NumVertices int
	Edges       [][2]int
	Features    [][]float32
}

// Validate checks the request against a model whose input width is inDim:
// at least one vertex, every edge endpoint in [0, NumVertices), and exactly
// NumVertices feature rows of inDim values each. Failures wrap the fault
// sentinels (ErrBadGraph, ErrBadShape). Every inference path — a Session,
// and the serving tier's sharded and sampled paths that have no local
// session to ask — validates through it, so all answer identical errors.
func (r InferRequest) Validate(inDim int) error {
	if r.NumVertices < 1 {
		return fmt.Errorf("scale: need at least one vertex, got %d: %w", r.NumVertices, fault.ErrBadGraph)
	}
	for i, e := range r.Edges {
		if e[0] < 0 || e[0] >= r.NumVertices || e[1] < 0 || e[1] >= r.NumVertices {
			return fmt.Errorf("scale: edge %d (%d→%d) outside [0, %d): %w", i, e[0], e[1], r.NumVertices, fault.ErrBadGraph)
		}
	}
	if len(r.Features) != r.NumVertices {
		return fmt.Errorf("scale: %d feature rows for %d vertices: %w", len(r.Features), r.NumVertices, fault.ErrBadShape)
	}
	for v, row := range r.Features {
		if len(row) != inDim {
			return fmt.Errorf("scale: feature row %d has %d values, model wants %d: %w", v, len(row), inDim, fault.ErrBadShape)
		}
	}
	return nil
}

// Validate reports whether req is a well-formed input for this session
// (vertex ids in range, feature matrix matching the graph and the model's
// input dimension). The serving layer calls it before admitting a request to
// a batch, so one malformed request gets its 400 without poisoning
// batch-mates.
func (sess *Session) Validate(req InferRequest) error { return req.Validate(sess.dims[0]) }

// Infer runs functional inference over one graph. See Simulator.Infer, which
// is now a thin wrapper over a throwaway Session.
func (sess *Session) Infer(numVertices int, edges [][2]int, features [][]float32) ([][]float32, error) {
	return sess.InferContext(context.Background(), InferRequest{NumVertices: numVertices, Edges: edges, Features: features})
}

// InferContext is Infer under a context: the deadline or cancellation maps
// through core.ForwardContext and is honoured at every scheduling-batch
// boundary.
func (sess *Session) InferContext(ctx context.Context, req InferRequest) ([][]float32, error) {
	out, err := sess.InferBatch(ctx, []InferRequest{req})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// InferBatch coalesces several independent graphs into one forward call: the
// inputs are joined into a block-diagonal (disjoint-union) graph, their
// feature matrices are stacked, and a single scheduled forward pass executes
// them all. Results are split back per request.
//
// Because aggregation folds each vertex's in-edges in CSR mapping order and
// the union preserves both per-vertex neighbor order and per-vertex degrees,
// every output row is computed by exactly the same float operation sequence
// as a standalone Infer call — batched results are bit-identical to serial
// ones (pinned by TestInferBatchBitIdentical). This is the primitive the
// serving layer's dynamic micro-batcher is built on.
func (sess *Session) InferBatch(ctx context.Context, reqs []InferRequest) ([][][]float32, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	total := 0
	for i, r := range reqs {
		if err := sess.Validate(r); err != nil {
			if len(reqs) > 1 {
				return nil, fmt.Errorf("scale: batch request %d: %w", i, err)
			}
			return nil, err
		}
		total += r.NumVertices
	}

	b := graph.NewBuilder(total)
	x := tensor.NewMatrix(total, sess.dims[0])
	offset := 0
	for _, r := range reqs {
		for _, e := range r.Edges {
			b.AddEdge(offset+e[0], offset+e[1])
		}
		for v, row := range r.Features {
			copy(x.Row(offset+v), row)
		}
		offset += r.NumVertices
	}
	g := b.Build("user")

	outs, err := sess.accel.ForwardContext(ctx, sess.model, g, x, 0)
	if err != nil {
		return nil, err
	}
	last := outs[len(outs)-1]

	results := make([][][]float32, len(reqs))
	offset = 0
	for i, r := range reqs {
		rows := make([][]float32, r.NumVertices)
		for v := range rows {
			rows[v] = append([]float32(nil), last.Row(offset+v)...)
		}
		results[i] = rows
		offset += r.NumVertices
	}
	return results, nil
}
