package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"scale/internal/dyn"
	"scale/internal/fault"
	"scale/internal/graph"
	"scale/internal/tensor"
)

// writeDynMetrics renders the dynamic graph's gauges and counters, including
// the schedule delta-invalidation hit rate (reused / refreshed entries; the
// dyn-smoke harness asserts it stays above zero under mutate+infer load).
func writeDynMetrics(w io.Writer, st dyn.Stats) {
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("scale_dyn_vertices", "Live vertices in the dynamic graph.", float64(st.Vertices))
	gauge("scale_dyn_edges", "Live edges in the dynamic graph (base + overlay).", float64(st.Edges))
	gauge("scale_dyn_delta_fraction", "Overlay edge ops as a fraction of base edges.", st.DeltaFrac)
	gauge("scale_dyn_delta_added", "Overlay edge inserts awaiting compaction.", float64(st.DeltaAdded))
	gauge("scale_dyn_delta_removed", "Overlay edge removals awaiting compaction.", float64(st.DeltaRemoved))
	counter("scale_dyn_mutations_total", "Individual graph deltas applied.", st.Mutations)
	counter("scale_dyn_mutation_batches_total", "Atomic mutation batches applied.", st.Batches)
	counter("scale_dyn_compactions_total", "Overlay compactions into the base CSR.", st.Compactions)
	counter("scale_dyn_sched_reused_total", "Schedule-table entries served from cache across refreshes.", st.SchedReused)
	counter("scale_dyn_sched_recomputed_total", "Schedule-table entries recomputed by delta-invalidation.", st.SchedRecomputed)
	rate := 0.0
	if total := st.SchedReused + st.SchedRecomputed; total > 0 {
		rate = float64(st.SchedReused) / float64(total)
	}
	gauge("scale_dyn_sched_invalidation_hit_rate", "Fraction of schedule-table refresh entries reused rather than recomputed.", rate)
}

// mutateOp is one JSON-encoded mutation of the POST /v1/mutate body.
type mutateOp struct {
	Op       string    `json:"op"` // add_edge, remove_edge, add_vertex
	Src      int32     `json:"src,omitempty"`
	Dst      int32     `json:"dst,omitempty"`
	Features []float32 `json:"features,omitempty"`
}

// mutateBody is the POST /v1/mutate JSON payload. The endpoint also accepts
// the binary batched-delta wire format (dyn.EncodeBatch) under
// Content-Type: application/octet-stream.
type mutateBody struct {
	Ops []mutateOp `json:"ops"`
}

// mutateResponse is the POST /v1/mutate success payload: the applied op
// count plus the graph's post-batch shape, so streaming writers can track
// growth without polling /metrics.
type mutateResponse struct {
	Applied      int     `json:"applied"`
	Vertices     int     `json:"vertices"`
	Edges        int64   `json:"edges"`
	DeltaAdded   int64   `json:"delta_added"`
	DeltaRemoved int64   `json:"delta_removed"`
	DeltaFrac    float64 `json:"delta_fraction"`
	Compactions  int64   `json:"compactions"`
}

// decodeMutateJSON maps the JSON op list onto a dyn.Batch, rejecting
// unknown verbs with the same typed sentinel as the binary decoder.
func decodeMutateJSON(body mutateBody) (dyn.Batch, error) {
	b := dyn.Batch{Ops: make([]dyn.Mutation, 0, len(body.Ops))}
	for i, op := range body.Ops {
		m := dyn.Mutation{Src: op.Src, Dst: op.Dst, Features: op.Features}
		switch op.Op {
		case "add_edge":
			m.Op = dyn.OpAddEdge
		case "remove_edge":
			m.Op = dyn.OpRemoveEdge
		case "add_vertex":
			m.Op = dyn.OpAddVertex
		default:
			return dyn.Batch{}, fmt.Errorf("serve: op %d: unknown mutation op %q: %w", i, op.Op, fault.ErrBadGraph)
		}
		b.Ops = append(b.Ops, m)
	}
	return b, nil
}

// handleMutate serves POST /v1/mutate: one atomic batch of graph deltas
// against the server's dynamic graph. Malformed batches are typed 400s
// (fault sentinels, decoded-before-allocated), a mid-compaction graph
// answers 409 with Retry-After, and a successful batch reports the new
// graph shape.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required", "usage")
		return
	}
	if !s.begin() {
		s.writeMapped(w, errDraining)
		return
	}
	defer s.end()
	if !s.queue.tryAcquire() {
		s.metrics.QueueRejections.Add(1)
		w.Header().Set("Retry-After", retrySeconds(s.cfg.RetryAfter))
		writeError(w, http.StatusTooManyRequests, "admission queue full", "over_capacity")
		return
	}
	defer s.queue.release()
	if s.cfg.Dynamic == nil {
		writeError(w, http.StatusBadRequest, "server has no dynamic graph (-dynamic)", "bad_input")
		return
	}

	var batch dyn.Batch
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/octet-stream") {
		var err error
		if batch, err = dyn.DecodeBatch(r.Body); err != nil {
			s.writeMapped(w, err)
			return
		}
	} else {
		var body mutateBody
		if err := decodeJSON(r, &body); err != nil {
			writeError(w, http.StatusBadRequest, "bad JSON body: "+err.Error(), "bad_input")
			return
		}
		var err error
		if batch, err = decodeMutateJSON(body); err != nil {
			s.writeMapped(w, err)
			return
		}
	}

	if err := s.cfg.Dynamic.Apply(batch); err != nil {
		s.metrics.MutationsRejected.Add(1)
		s.writeMapped(w, err)
		return
	}
	s.metrics.MutationBatches.Add(1)
	s.metrics.MutationOps.Add(int64(len(batch.Ops)))
	st := s.cfg.Dynamic.Stats()
	writeJSON(w, http.StatusOK, mutateResponse{
		Applied:      len(batch.Ops),
		Vertices:     st.Vertices,
		Edges:        st.Edges,
		DeltaAdded:   st.DeltaAdded,
		DeltaRemoved: st.DeltaRemoved,
		DeltaFrac:    st.DeltaFrac,
		Compactions:  st.Compactions,
	})
}

// handleInferDirect serves infer requests that bypass the micro-batcher:
// dynamic-graph requests ("graph":"dynamic" — the vertex set is the
// server's, so disjoint-union batching does not apply) and sampled requests
// (sample_fanout > 0 — per-request seeds bind to request-local vertex ids,
// which batching would shift). The forward pass runs under
// Config.SampleWorkers; fp32 responses are byte-identical for every worker
// count and across replays of the same seed.
func (s *Server) handleInferDirect(w http.ResponseWriter, r *http.Request, body inferBody, precision string) {
	entry, err := s.session(body.Model, body.Dims, precision)
	if err != nil {
		s.writeMapped(w, err)
		return
	}
	defer entry.refs.Done()

	var g *graph.Graph
	var x *tensor.Matrix
	if body.Graph == "dynamic" {
		if s.cfg.Dynamic == nil {
			writeError(w, http.StatusBadRequest, "server has no dynamic graph (-dynamic)", "bad_input")
			return
		}
		s.metrics.DynRequests.Add(1)
		if g, x, err = s.cfg.Dynamic.View(); err != nil {
			s.writeMapped(w, err)
			return
		}
	} else {
		// Sampled inference over a request-carried graph: same body shape
		// as the batched path, validated with the same sentinels.
		if err := validateCarried(&body); err != nil {
			s.writeMapped(w, err)
			return
		}
		b := graph.NewBuilder(body.NumVertices)
		for _, e := range body.Edges {
			b.AddEdge(e[0], e[1])
		}
		g = b.Build("user")
		x = tensor.NewMatrix(body.NumVertices, body.Dims[0])
		for v, row := range body.Features {
			copy(x.Row(v), row)
		}
	}

	ctx := r.Context()
	cancel := func() {}
	if body.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(body.TimeoutMS)*time.Millisecond)
	}
	defer cancel()

	var rows [][]float32
	if body.SampleFanout > 0 {
		s.metrics.SampledRequests.Add(1)
		sampler := dyn.Sampler{Fanout: body.SampleFanout, Seed: body.SampleSeed}
		layers, serr := sampler.Sample(g, entry.sess.NumLayers())
		if serr != nil {
			s.writeMapped(w, serr)
			return
		}
		rows, err = entry.sess.InferSampled(ctx, layers, x, s.cfg.SampleWorkers)
	} else {
		rows, err = entry.sess.InferGraph(ctx, g, x, s.cfg.SampleWorkers)
	}
	if err != nil {
		s.writeMapped(w, err)
		return
	}
	writeJSON(w, http.StatusOK, inferResponse{Model: entry.sess.Model(), Precision: entry.sess.Precision(), Embeddings: rows})
}
