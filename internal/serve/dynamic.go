package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"scale/internal/dyn"
	"scale/internal/fault"
	"scale/internal/httpapi"
)

// writeDynMetrics renders the dynamic graph's gauges and counters.
func writeDynMetrics(w io.Writer, st dyn.Stats) {
	httpapi.Gauge(w, "scale_dyn_vertices", "Live vertices in the dynamic graph.", float64(st.Vertices))
	httpapi.Gauge(w, "scale_dyn_edges", "Live edges in the dynamic graph.", float64(st.Edges))
	httpapi.Counter(w, "scale_dyn_mutations_total", "Individual graph deltas applied.", st.Mutations)
	httpapi.Counter(w, "scale_dyn_mutation_batches_total", "Atomic mutation batches applied.", st.Batches)
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
	Applied  int   `json:"applied"`
	Vertices int   `json:"vertices"`
	Edges    int64 `json:"edges"`
}

// decodeMutate reads one /v1/mutate body once: an SCD1 frame under
// Content-Type application/octet-stream, a JSON op list otherwise. A body
// cut short is a truncated frame, as the decoder would call it.
func decodeMutate(r *http.Request) (dyn.Batch, error) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream") {
		frame, err := httpapi.ReadBody(r.Body, r.ContentLength)
		if err != nil {
			return dyn.Batch{}, fmt.Errorf("serve: truncated mutation frame: %v: %w", err, fault.ErrBadGraph)
		}
		return dyn.DecodeBatch(frame)
	}
	var body mutateBody
	if err := decodeJSON(r, &body); err != nil {
		return dyn.Batch{}, badBody(err)
	}
	return decodeMutateJSON(body)
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
// (fault sentinels, decoded-before-allocated), every refused batch counts
// in MutationsRejected, and a successful batch reports the new graph shape.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Dynamic == nil {
		httpapi.WriteError(w, errNoDynamic)
		return
	}
	batch, err := decodeMutate(r)
	if err == nil {
		err = s.cfg.Dynamic.Apply(batch)
	}
	if err != nil {
		s.metrics.MutationsRejected.Add(1)
		httpapi.WriteError(w, err)
		return
	}
	s.metrics.MutationBatches.Add(1)
	s.metrics.MutationOps.Add(int64(len(batch.Ops)))
	st := s.cfg.Dynamic.Stats()
	httpapi.WriteJSON(w, http.StatusOK, mutateResponse{
		Applied:  len(batch.Ops),
		Vertices: st.Vertices,
		Edges:    st.Edges,
	})
}
