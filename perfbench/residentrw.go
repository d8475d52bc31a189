package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"scale"
	"scale/internal/core"
	"scale/internal/dyn"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/sched"
	"scale/internal/serve"
	"scale/internal/tensor"
)

// resident-rw: one closed-loop client against the server's resident
// Reddit-scale dynamic graph (931 vertices, ~458k edges, gcn 602→64→41).
// Reads carry no graph, so the forward pass is most of a read; 64-op
// mutation batches beside them make the first read after a write pay the
// snapshot merge and exercise dyn's schedule-table refresh. Adds and removes
// are equal in number, so the graph stays the same size, and compaction is
// off so none happens mid-run.
const (
	rwSetups     = 7
	rwFanout     = 32
	rwBatchOps   = 64
	rwSampleSeed = 3 // sampled reads draw seeds 1..rwSampleSeed, so pairs repeat
	rwLayerReps  = 3
	rwProbeReads = 20 // sampled reads replayed through direct calls when traced
)

// rwBlock is the request mix: fp32 full reads, int8 full reads, sampled
// reads at fanout 32, and mutation batches. The sequence is made of
// shuffled copies of this block, so every stretch of a run has the same mix
// and a run's throughput does not depend on how the seed happened to draw
// it. fp32 reads are two thirds of all reads, so the median read falls well
// inside the fp32 cluster rather than in the gap below it.
var rwBlock = []struct {
	kind  string
	count int
}{{"fp32", 12}, {"int8", 4}, {"sampled", 2}, {"mutate", 2}}

// mirrorOp is one edge mutation as the benchmark's own edge-multiset mirror
// applies it: an append, or a swap-delete at idx.
type mirrorOp struct {
	add      bool
	src, dst int
	idx      int
}

type rwInputs struct {
	base    *graph.Graph
	dims    []int
	x       *tensor.Matrix
	edges   [][2]int
	reqs    []request
	batches [][]mirrorOp // batch i takes the graph from version i to i+1
}

func genResidentRW(seed int64, n int) (*rwInputs, error) {
	g, dims, xs := redditScale(seed, 1)
	in := &rwInputs{base: g, dims: dims, x: xs[0], edges: edgeList(g)}
	read := func(precision string, extra map[string]any) ([]byte, error) {
		b := map[string]any{"model": "gcn", "dims": dims, "graph": "dynamic", "precision": precision}
		for k, v := range extra {
			b[k] = v
		}
		return json.Marshal(b)
	}
	fp32Body, err := read("fp32", nil)
	if err != nil {
		return nil, err
	}
	int8Body, err := read("int8", nil)
	if err != nil {
		return nil, err
	}
	sampledBody := make([][]byte, rwSampleSeed+1)
	for s := 1; s <= rwSampleSeed; s++ {
		if sampledBody[s], err = read("fp32", map[string]any{"sample_fanout": rwFanout, "sample_seed": s}); err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(seed + 2))
	mirror := append([][2]int(nil), in.edges...)
	nv := g.NumVertices()
	version := 0
	var block []string
	for _, b := range rwBlock {
		for i := 0; i < b.count; i++ {
			block = append(block, b.kind)
		}
	}
	for i := 0; i < n; i++ {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		kind := block[i%len(block)]
		r := request{kind: kind, path: "/v1/infer", ctype: "application/json", version: version}
		switch kind {
		case "fp32":
			r.body = fp32Body
		case "int8":
			r.body = int8Body
		case "sampled":
			s := 1 + rng.Intn(rwSampleSeed)
			r.body, r.aux = sampledBody[s], s
		case "mutate":
			batch, ops := genBatch(rng, &mirror, nv)
			b, err := json.Marshal(map[string]any{"ops": ops})
			if err != nil {
				return nil, err
			}
			r.path, r.body, r.aux = "/v1/mutate", b, version
			in.batches = append(in.batches, batch)
			version++
		}
		in.reqs = append(in.reqs, r)
	}
	return in, nil
}

// genBatch draws rwBatchOps/2 random edge inserts and as many removals of
// edges present at that point, applying them to the mirror as it goes.
func genBatch(rng *rand.Rand, mirror *[][2]int, nv int) ([]mirrorOp, []map[string]any) {
	var batch []mirrorOp
	var ops []map[string]any
	for i := 0; i < rwBatchOps; i++ {
		var op mirrorOp
		if i%2 == 0 {
			op = mirrorOp{add: true, src: rng.Intn(nv), dst: rng.Intn(nv)}
			ops = append(ops, map[string]any{"op": "add_edge", "src": op.src, "dst": op.dst})
		} else {
			idx := rng.Intn(len(*mirror))
			e := (*mirror)[idx]
			op = mirrorOp{src: e[0], dst: e[1], idx: idx}
			ops = append(ops, map[string]any{"op": "remove_edge", "src": op.src, "dst": op.dst})
		}
		applyMirror(mirror, op)
		batch = append(batch, op)
	}
	return batch, ops
}

func applyMirror(mirror *[][2]int, op mirrorOp) {
	if op.add {
		*mirror = append(*mirror, [2]int{op.src, op.dst})
		return
	}
	m := *mirror
	m[op.idx] = m[len(m)-1]
	*mirror = m[:len(m)-1]
}

// dynBatch is batch as a dyn.Batch, for direct calls to dyn.Graph.Apply.
func dynBatch(batch []mirrorOp) dyn.Batch {
	b := dyn.Batch{Ops: make([]dyn.Mutation, len(batch))}
	for i, op := range batch {
		b.Ops[i] = dyn.Mutation{Op: dyn.OpRemoveEdge, Src: int32(op.src), Dst: int32(op.dst)}
		if op.add {
			b.Ops[i].Op = dyn.OpAddEdge
		}
	}
	return b
}

func newDyn(in *rwInputs) (*dyn.Graph, error) {
	return dyn.New(in.base, in.x, dyn.Config{CompactThreshold: math.Inf(1)})
}

type rwSys struct {
	srv *serve.Server
	h   http.Handler
}

func bootResidentRW(in *rwInputs, kept *bodies, warmOuts *[]*outcome) (*rwSys, error) {
	sim, err := scale.New(scale.Options{})
	if err != nil {
		return nil, err
	}
	dg, err := newDyn(in)
	if err != nil {
		return nil, err
	}
	sys := &rwSys{srv: serve.New(serve.Config{Sim: sim, Dynamic: dg})}
	sys.h = sys.srv.Handler()
	// The first request per session key: one fp32 and one int8 full read.
	for _, kind := range []string{"fp32", "int8"} {
		r := firstOf(in.reqs, kind)
		r.version = 0
		o := send(sys.h, r, time.Now(), nil, kept)
		if o.code != http.StatusOK {
			return nil, fmt.Errorf("first %s read: status %d", kind, o.code)
		}
		*warmOuts = append(*warmOuts, warm([]*outcome{o})...)
	}
	return sys, nil
}

func firstOf(reqs []request, kind string) request {
	for _, r := range reqs {
		if r.kind == kind {
			return r
		}
	}
	return request{kind: kind}
}

// checkResidentRW replays the mutation batches on the benchmark's own edge
// mirror and, at every graph version that was read, rebuilds the graph from
// scratch and compares: fp32 and sampled reads byte-identical to a direct
// session, int8 reads within the accuracy bound, mutations answered with
// the expected graph shape. outs must come from one system, in order.
func checkResidentRW(in *rwInputs, outs []*outcome, kept *bodies) error {
	sim, err := scale.New(scale.Options{})
	if err != nil {
		return err
	}
	sess, err := sim.NewSession("gcn", in.dims)
	if err != nil {
		return err
	}
	byVersion := make(map[int][]*outcome)
	maxV := 0
	for _, o := range outs {
		if o.code != http.StatusOK {
			continue
		}
		if o.kind == "mutate" {
			var resp struct {
				Applied int   `json:"applied"`
				Edges   int64 `json:"edges"`
			}
			o.checked = json.Unmarshal(kept.get(o.hash), &resp) == nil &&
				resp.Applied == rwBatchOps && resp.Edges == int64(len(in.edges))
			continue
		}
		byVersion[o.version] = append(byVersion[o.version], o)
		if o.version > maxV {
			maxV = o.version
		}
	}
	mirror := append([][2]int(nil), in.edges...)
	ctx := context.Background()
	for v := 0; v <= maxV; v++ {
		if v > 0 {
			for _, op := range in.batches[v-1] {
				applyMirror(&mirror, op)
			}
		}
		reads := byVersion[v]
		if len(reads) == 0 {
			continue
		}
		b := graph.NewBuilder(in.base.NumVertices())
		for _, e := range mirror {
			b.AddEdge(e[0], e[1])
		}
		g := b.Build("mirror")
		var full [][]float32
		var fullHash uint64
		sampled := make(map[int]uint64)
		for _, o := range reads {
			switch o.kind {
			case "fp32", "int8":
				if full == nil {
					if full, err = sess.InferGraph(ctx, g, in.x, 0); err != nil {
						return err
					}
					fullHash = hashOf(encodeInfer("gcn", "fp32", full))
				}
				if o.kind == "fp32" {
					o.checked = o.hash == fullHash
				} else {
					o.checked = checkInt8(kept.get(o.hash), full) == nil
				}
			case "sampled":
				h, ok := sampled[o.aux]
				if !ok {
					layers, err := dyn.Sampler{Fanout: rwFanout, Seed: uint64(o.aux)}.Sample(g, sess.NumLayers())
					if err != nil {
						return err
					}
					rows, err := sess.InferSampled(ctx, layers, in.x, 0)
					if err != nil {
						return err
					}
					h = hashOf(encodeInfer("gcn", "fp32", rows))
					sampled[o.aux] = h
				}
				o.checked = o.hash == h
			}
		}
	}
	return nil
}

func residentRW(cfg runConfig) (*report, error) {
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		window /= 2
	}
	in, err := genResidentRW(cfg.seed, int(cfg.seconds*100)+50)
	if err != nil {
		return nil, err
	}
	kept := &bodies{}
	var warmOuts []*outcome
	boot := func(k int) (*rwSys, []usage, error) {
		return setups(k, cfg.cal, func() (*rwSys, error) { return bootResidentRW(in, kept, &warmOuts) },
			func(s *rwSys) { s.srv.Close() })
	}
	sys, setupUse, err := boot(rwSetups)
	if err != nil {
		return nil, err
	}
	steal0, total0 := hostSteal()
	outs, used := closedLoop(sys.h, in.reqs, window, cfg.cal, nil, kept)
	rss := maxRSSMB()
	steal1, total1 := hostSteal()
	steal := 100 * (steal1 - steal0) / (total1 - total0)
	sys.srv.Close()
	if !cfg.trace {
		// Set-up reads all saw version 0, so they check with the run's.
		all := append(warmOuts, outs...)
		if err := checkResidentRW(in, all, kept); err != nil {
			return nil, err
		}
		return &report{outcomes: all, metrics: endToEndMetrics(cfg.log, all, setupUse, used, closedCPUPerReq(outs, in.reqs), steal, rss)}, nil
	}

	tr := newTracer()
	tsys, _, err := boot(1)
	if err != nil {
		return nil, err
	}
	touts, _ := closedLoop(tsys.h, in.reqs, window, cfg.cal, tr, kept)
	tsys.srv.Close()
	all := append(warmOuts, outs...)
	if err := checkResidentRW(in, all, kept); err != nil {
		return nil, err
	}
	if err := checkResidentRW(in, touts, kept); err != nil {
		return nil, err
	}
	all = append(all, touts...)
	m := map[string]float64{}
	reads := []string{"fp32", "int8", "sampled"}
	m["tracing.overhead_ms"] = median(latencies(touts, reads...)) - median(latencies(outs, reads...))
	sm := tsys.srv.Metrics()
	m["serve.rejections"] = float64(sm.QueueRejections.Load())
	m["serve.sessions_created"] = float64(sm.SessionsCreated.Load())
	if err := probeDyn(in, touts, tr, m); err != nil {
		return nil, err
	}
	if err := probeLayers(cfg, in, tr, m); err != nil {
		return nil, err
	}
	return &report{outcomes: all, metrics: m, tr: tr}, nil
}

// probeDyn replays the traced run's request sequence on a replica dynamic
// graph through dyn's public functions: Apply per mutation batch, the first
// View after each write (the merge), and Sampler.Sample plus
// Session.InferSampled for sampled reads.
func probeDyn(in *rwInputs, touts []*outcome, tr *tracer, m map[string]float64) error {
	dg, err := newDyn(in)
	if err != nil {
		return err
	}
	sim, err := scale.New(scale.Options{})
	if err != nil {
		return err
	}
	sess, err := sim.NewSession("gcn", in.dims)
	if err != nil {
		return err
	}
	var apply, view, sample, infer []float64
	dirty := false
	sampledN := 0
	ctx := context.Background()
	for i, o := range touts {
		r := in.reqs[i]
		if r.kind == "mutate" {
			d, err := timed(tr, "dyn.apply", 0, func() error { return dg.Apply(dynBatch(in.batches[r.aux])) })
			if err != nil {
				return err
			}
			apply = append(apply, ms(d))
			dirty = true
			continue
		}
		if dirty {
			d, err := timed(tr, "dyn.view", 0, func() error { _, _, err := dg.View(); return err })
			if err != nil {
				return err
			}
			view = append(view, ms(d))
			dirty = false
		}
		if o.kind != "sampled" || sampledN >= rwProbeReads {
			continue
		}
		sampledN++
		g, x, err := dg.View()
		if err != nil {
			return err
		}
		var layers []*graph.Graph
		d, err := timed(tr, "dyn.sample", 0, func() error {
			var err error
			layers, err = dyn.Sampler{Fanout: rwFanout, Seed: uint64(r.aux)}.Sample(g, sess.NumLayers())
			return err
		})
		if err != nil {
			return err
		}
		sample = append(sample, ms(d))
		d, err = timed(tr, "core.sampled", 0, func() error { _, err := sess.InferSampled(ctx, layers, x, 0); return err })
		if err != nil {
			return err
		}
		infer = append(infer, ms(d))
	}
	m["dyn.apply_ms_p50"] = median(apply)
	m["dyn.view_ms_p50"] = median(view)
	m["dyn.sample_ms_p50"] = median(sample)
	m["core.sampled_ms_p50"] = median(infer)
	return nil
}

// probeLayers splits each forward layer of a full read into its parts by
// direct calls on the resident graph: Session.ForwardLayerCSR for the whole
// layer, gnn.PrepareLayerPrecision for prepare, sched.Scheduler.Schedule
// over the layer's batches for scheduling; aggregation plus update is the
// remainder. Beside them sit the simulator's modelled aggregation and update
// cycles for the same graph (core.SCALE.RunTraced on its degree profile).
func probeLayers(cfg runConfig, in *rwInputs, tr *tracer, m map[string]float64) error {
	sim, err := scale.New(scale.Options{})
	if err != nil {
		return err
	}
	ccfg := coreConfig()
	g, x := in.base, in.x
	degrees := g.Degrees()
	ctx := context.Background()
	for _, prec := range []string{"fp32", "int8"} {
		sess, err := sim.NewSessionPrecision("gcn", in.dims, prec)
		if err != nil {
			return err
		}
		model, err := gnn.NewModel("gcn", in.dims, 1)
		if err != nil {
			return err
		}
		if prec == "int8" {
			if err := gnn.QuantizeModel(model); err != nil {
				return err
			}
		}
		h := x
		for li, layer := range model.Layers {
			var out *tensor.Matrix
			layerMs, err := probeMs(tr, "core.forward_layer", rwLayerReps, func() error {
				var err error
				out, err = sess.ForwardLayerCSR(ctx, li, g, h, nil, 0)
				return err
			})
			if err != nil {
				return err
			}
			prepMs, _ := probeMs(tr, "gnn.prepare", rwLayerReps, func() error {
				gnn.PrepareLayerPrecision(layer, h, 0, prec == "int8")
				return nil
			})
			schedMs, err := probeMs(tr, "sched.schedule", rwLayerReps, func() error { return scheduleLayer(ccfg, layer, degrees) })
			if err != nil {
				return err
			}
			p := fmt.Sprintf("l%d.%s", li, prec)
			m["core."+p+".ms"] = layerMs
			m["gnn."+p+".prepare_ms"] = prepMs
			m[fmt.Sprintf("sched.l%d.schedule_ms", li)] = schedMs
			m["core."+p+".agg_update_ms"] = layerMs - prepMs - schedMs
			h = out
		}
	}

	accel, err := core.New(ccfg)
	if err != nil {
		return err
	}
	model, err := gnn.NewModel("gcn", in.dims, 1)
	if err != nil {
		return err
	}
	res, _, err := accel.RunTraced(model, graph.NewProfile("reddit-scale", degrees))
	if err != nil {
		return err
	}
	for li, lr := range res.Layers {
		m[fmt.Sprintf("core.l%d.modelled_agg_cycles", li)] = float64(lr.Breakdown.Agg)
		m[fmt.Sprintf("core.l%d.modelled_update_cycles", li)] = float64(lr.Breakdown.Update)
		fmt.Fprintf(cfg.log, "layer %d: modelled agg %d update %d cycles; measured fp32 agg+update %.3f ms, int8 %.3f ms\n",
			li, lr.Breakdown.Agg, lr.Breakdown.Update,
			m[fmt.Sprintf("core.l%d.fp32.agg_update_ms", li)], m[fmt.Sprintf("core.l%d.int8.agg_update_ms", li)])
	}
	return nil
}

// scheduleLayer runs the scheduling the forward pass does for one layer:
// the layer's ring geometry, then Schedule over every vertex batch.
func scheduleLayer(cfg core.Config, layer gnn.Layer, degrees []int32) error {
	w := layer.Work()
	ring := cfg.RingSizeFor(w.WeightBytes, w.InDim, w.OutDim)
	rings := cfg.NumRings(ring)
	s, err := sched.NewScheduler(sched.Config{NumTasks: rings * ring, NumGroups: rings, Policy: cfg.Policy}, true)
	if err != nil {
		return err
	}
	n, b := len(degrees), cfg.EffectiveBatchSize()
	verts := make([]int32, n)
	for i := range verts {
		verts[i] = int32(i)
	}
	for lo := 0; lo < n; lo += b {
		hi := lo + b
		if hi > n {
			hi = n
		}
		if _, err := s.Schedule(degrees, verts[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}
