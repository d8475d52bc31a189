package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"scale"
	"scale/internal/baseline"
	"scale/internal/core"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/serve"
)

// small-open: independent users sending small graphs in their request
// bodies, as an open loop with Poisson arrivals at a fixed rate the server
// meets comfortably. Per-request fixed cost and the micro-batcher dominate;
// forward compute is tiny. It is the only workload that reaches the
// simulator, through a ~5 % share of /v1/simulate calls.
const (
	smallRate      = 150.0 // offered requests per second
	smallPerKey    = 256   // distinct request bodies per session key; enough that a seed's mean graph size is within ~3 % of another's
	simulateEvery  = 20    // one arrival in each block of 20 is a /v1/simulate call
	smallSetups    = 15
	smallProbeSims = 40 // simulate calls replayed through direct calls when traced
)

var smallDims = []int{16, 32, 8}

// smallKeys are the three session keys: two fp32 models and one int8.
var smallKeys = []struct{ model, precision string }{
	{"gcn", "fp32"}, {"gin", "fp32"}, {"gcn", "int8"},
}

// simCombo is one supported (accelerator, model, dataset) simulate call.
// Reddit is left out: one reddit simulate takes ~200 ms and would
// monopolise a core in a workload whose requests take under a millisecond.
type simCombo struct{ Accel, Model, Dataset string }

func simCombos() []simCombo {
	var out []simCombo
	for _, ds := range []string{"cora", "citeseer", "pubmed", "nell"} {
		for _, a := range []string{"scale", "awb-gcn", "gcnax", "regnn", "flowgnn", "i-gcn", "systolic"} {
			out = append(out, simCombo{a, "gcn", ds})
		}
		for _, m := range []string{"gin", "gs-pl"} {
			for _, a := range []string{"scale", "regnn", "flowgnn", "systolic"} {
				out = append(out, simCombo{a, m, ds})
			}
		}
	}
	return out
}

type smallInput struct {
	key      int
	n        int
	edges    [][2]int
	features [][]float32
	body     []byte
}

type arrival struct {
	at  time.Duration
	sim bool
	idx int // input or combo index
}

type smallOpenInputs struct {
	inputs   []smallInput
	combos   []simCombo
	simBody  [][]byte
	arrivals []arrival
}

func genSmallOpen(seed int64, d time.Duration) (*smallOpenInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &smallOpenInputs{combos: simCombos()}
	for i := 0; i < smallPerKey*len(smallKeys); i++ {
		k := i % len(smallKeys)
		n := 16 + rng.Intn(113)
		si := smallInput{key: k, n: n}
		for e := 0; e < 4*n; e++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			si.edges = append(si.edges, [2]int{src, dst})
		}
		si.features = rowsOf(gridMatrix(rng, n, smallDims[0]))
		b, err := json.Marshal(map[string]any{
			"model": smallKeys[k].model, "dims": smallDims, "precision": smallKeys[k].precision,
			"num_vertices": n, "edges": si.edges, "features": si.features,
		})
		if err != nil {
			return nil, err
		}
		si.body = b
		in.inputs = append(in.inputs, si)
	}
	for _, c := range in.combos {
		b, err := json.Marshal(map[string]string{"model": c.Model, "dataset": c.Dataset, "accel": c.Accel})
		if err != nil {
			return nil, err
		}
		in.simBody = append(in.simBody, b)
	}
	// A separate stream, so a shorter window replays a prefix of a longer one.
	// Inputs, simulate calls and the arrivals that are simulate calls are
	// dealt from shuffled decks rather than drawn independently: every run
	// then sees the same mix of graph sizes and of cheap and expensive
	// simulate calls, which set the tail and the CPU time per request.
	arng := rand.New(rand.NewSource(seed + 1))
	inputs, combos := newDeck(arng, len(in.inputs)), newDeck(arng, len(in.combos))
	slots := newDeck(arng, simulateEvery) // slot 0 of each shuffled block is a simulate call
	var t float64
	for {
		t += arng.ExpFloat64() / smallRate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			break
		}
		a := arrival{at: at}
		if slots.next() == 0 {
			a.sim, a.idx = true, combos.next()
		} else {
			a.idx = inputs.next()
		}
		in.arrivals = append(in.arrivals, a)
	}
	return in, nil
}

// deck deals 0..n-1 in a shuffled order, reshuffling after each full pass.
type deck struct {
	rng   *rand.Rand
	cards []int
	pos   int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, cards: make([]int, n), pos: n}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

func (in *smallOpenInputs) request(a arrival) request {
	if a.sim {
		return request{kind: "simulate", path: "/v1/simulate", ctype: "application/json", body: in.simBody[a.idx], aux: a.idx}
	}
	return request{kind: smallKeys[in.inputs[a.idx].key].precision, path: "/v1/infer", ctype: "application/json", body: in.inputs[a.idx].body, aux: a.idx}
}

type smallSys struct {
	srv *serve.Server
	h   http.Handler
}

func bootSmallOpen(in *smallOpenInputs, tr *tracer, kept *bodies, warmOuts *[]*outcome) (*smallSys, error) {
	sim, err := scale.New(scale.Options{})
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{Sim: sim}
	if tr != nil {
		cfg.Backend = timedBackend(tr)
	}
	sys := &smallSys{srv: serve.New(cfg)}
	sys.h = sys.srv.Handler()
	for k := range smallKeys {
		r := in.request(arrival{idx: k})
		o := send(sys.h, r, time.Now(), nil, kept)
		if o.code != http.StatusOK {
			return nil, fmt.Errorf("first %s request: status %d", r.kind, o.code)
		}
		*warmOuts = append(*warmOuts, warm([]*outcome{o})...)
	}
	return sys, nil
}

// openLoop sends every arrival at its due time, regardless of earlier
// answers, and waits for all of them. The calibration kernel runs every
// calEvery meanwhile; its samples come back with the outcomes.
func openLoop(h http.Handler, in *smallOpenInputs, arrivals []arrival, cal *calibrator, tr *tracer, kept *bodies) ([]*outcome, []calSample, usage) {
	outs := make([]*outcome, len(arrivals))
	var wg sync.WaitGroup
	stop, samples := make(chan struct{}), make(chan []calSample, 1)
	go func() { samples <- calibrateEvery(cal, calEvery, stop) }()
	m := startMeter()
	t0 := m.wall
	for i, a := range arrivals {
		due := t0.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, r request, due time.Time) {
			defer wg.Done()
			outs[i] = send(h, r, due, tr, kept)
		}(i, in.request(a), due)
	}
	wg.Wait()
	u := m.stop()
	close(stop)
	return outs, <-samples, u
}

// smallRefs holds the set-up references the checks compare against.
type smallRefs struct {
	cycles map[int]int64 // combo index → SimulateOn cycles
	sim    *scale.Simulator
	sess   map[string]*scale.Session
}

func newSmallRefs(in *smallOpenInputs) (*smallRefs, error) {
	sim, err := scale.New(scale.Options{})
	if err != nil {
		return nil, err
	}
	r := &smallRefs{cycles: make(map[int]int64), sim: sim, sess: make(map[string]*scale.Session)}
	for i, c := range in.combos {
		rep, err := sim.SimulateOn(c.Accel, c.Model, c.Dataset)
		if err != nil {
			return nil, fmt.Errorf("reference simulate %v: %w", c, err)
		}
		r.cycles[i] = rep.Cycles
	}
	return r, nil
}

// fp32 returns the direct-session fp32 embeddings of input idx.
func (r *smallRefs) fp32(in *smallInput) ([][]float32, error) {
	model := smallKeys[in.key].model
	sess, ok := r.sess[model]
	if !ok {
		var err error
		if sess, err = r.sim.NewSession(model, smallDims); err != nil {
			return nil, err
		}
		r.sess[model] = sess
	}
	return sess.Infer(in.n, in.edges, in.features)
}

// checkSmallOpen checks every outcome: fp32 bodies byte-identical to the
// direct-session reference, int8 within the accuracy bound of it, simulate
// cycles equal to the set-up SimulateOn reference.
func checkSmallOpen(in *smallOpenInputs, refs *smallRefs, outs []*outcome, kept *bodies) error {
	type ref struct {
		rows [][]float32
		hash uint64
	}
	cache := make(map[int]ref)
	get := func(idx int) (ref, error) {
		if r, ok := cache[idx]; ok {
			return r, nil
		}
		rows, err := refs.fp32(&in.inputs[idx])
		if err != nil {
			return ref{}, err
		}
		r := ref{rows: rows, hash: hashOf(encodeInfer(smallKeys[in.inputs[idx].key].model, "fp32", rows))}
		cache[idx] = r
		return r, nil
	}
	for _, o := range outs {
		if o.code != http.StatusOK {
			continue
		}
		switch o.kind {
		case "fp32":
			r, err := get(o.aux)
			if err != nil {
				return err
			}
			o.checked = o.hash == r.hash
		case "int8":
			r, err := get(o.aux)
			if err != nil {
				return err
			}
			o.checked = checkInt8(kept.get(o.hash), r.rows) == nil
		case "simulate":
			var rep struct{ Cycles int64 }
			o.checked = json.Unmarshal(kept.get(o.hash), &rep) == nil && rep.Cycles == refs.cycles[o.aux]
		}
	}
	return nil
}

func smallOpen(cfg runConfig) (*report, error) {
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		window /= 2
	}
	in, err := genSmallOpen(cfg.seed, window)
	if err != nil {
		return nil, err
	}
	refs, err := newSmallRefs(in)
	if err != nil {
		return nil, err
	}
	kept := &bodies{}
	var warmOuts []*outcome
	boot := func(tr *tracer, k int) (*smallSys, []usage, error) {
		return setups(k, cfg.cal, func() (*smallSys, error) { return bootSmallOpen(in, tr, kept, &warmOuts) },
			func(s *smallSys) { s.srv.Close() })
	}

	sys, setupUse, err := boot(nil, smallSetups)
	if err != nil {
		return nil, err
	}
	steal0, total0 := hostSteal()
	outs, samples, used := openLoop(sys.h, in, in.arrivals, cfg.cal, nil, kept)
	rss := maxRSSMB()
	steal1, total1 := hostSteal()
	steal := 100 * (steal1 - steal0) / (total1 - total0)
	sys.srv.Close()
	all := append(warmOuts, outs...)
	if !cfg.trace {
		if err := checkSmallOpen(in, refs, all, kept); err != nil {
			return nil, err
		}
		reportLateness(cfg, outs)
		return &report{outcomes: all, metrics: endToEndMetrics(cfg.log, all, setupUse, used, openCPUPerReq(samples, outs), steal, rss)}, nil
	}

	// Traced replay of the same arrivals on a fresh system.
	tr := newTracer()
	tsys, _, err := boot(tr, 1)
	if err != nil {
		return nil, err
	}
	touts, _, _ := openLoop(tsys.h, in, in.arrivals, cfg.cal, tr, kept)
	tsys.srv.Close()
	all = append(append(warmOuts, outs...), touts...)
	if err := checkSmallOpen(in, refs, all, kept); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	untraced, traced := latencies(outs, "fp32", "int8"), latencies(touts, "fp32", "int8")
	m["tracing.overhead_ms"] = median(traced) - median(untraced)
	fmt.Fprintf(cfg.log, "tracing overhead: p50 %.4f ms traced vs %.4f ms untraced\n", median(traced), median(untraced))
	sm := tsys.srv.Metrics()
	m["serve.rejections"] = float64(sm.QueueRejections.Load())
	m["serve.sessions_created"] = float64(sm.SessionsCreated.Load())

	spans := tr.snapshot()
	var sizes, weighted []float64
	var reqs float64
	for _, s := range spans {
		if s.Name == "serve.backend" {
			sizes = append(sizes, float64(s.N))
			weighted = append(weighted, float64(s.N)*ms(s.dur()))
			reqs += float64(s.N)
		}
	}
	m["serve.batch_size_mean"] = mean(sizes)
	m["serve.backend_ms_p50"] = median(spanMs(spans, "serve.backend"))
	// Mean over requests of the backend time of the batch each rode in:
	// Σ size·time / Σ size. Subtracting it from the mean request latency
	// leaves decode, admission, batch-window wait and encode.
	if reqs > 0 {
		m["serve.nonbackend_ms_mean"] = mean(traced) - sum(weighted)/reqs
	}

	if err := probeSimulate(cfg, in, touts, tr, m); err != nil {
		return nil, err
	}
	return &report{outcomes: all, metrics: m, tr: tr}, nil
}

// probeSimulate replays the traced run's simulate calls through the
// simulator's public functions: Dataset.Profile, then core.SCALE.Run or a
// baseline's Run on the prebuilt profile.
func probeSimulate(cfg runConfig, in *smallOpenInputs, touts []*outcome, tr *tracer, m map[string]float64) error {
	accel, err := core.New(coreConfig())
	if err != nil {
		return err
	}
	var profile, coreRun, baseRun []float64
	n := 0
	for _, o := range touts {
		if o.kind != "simulate" || n >= smallProbeSims {
			continue
		}
		n++
		c := in.combos[o.aux]
		d, err := graph.ByName(c.Dataset)
		if err != nil {
			return err
		}
		mdl, err := gnn.NewModel(c.Model, d.FeatureDims, 1)
		if err != nil {
			return err
		}
		var p *graph.Profile
		dt, _ := timed(tr, "graph.profile", 0, func() error { p = d.Profile(); return nil })
		profile = append(profile, ms(dt))
		if c.Accel == "scale" {
			dt, err = timed(tr, "core.run", 0, func() error { _, err := accel.Run(mdl, p); return err })
			coreRun = append(coreRun, ms(dt))
		} else {
			b, berr := baseline.ByName(c.Accel, accel.MACs())
			if berr != nil {
				return berr
			}
			dt, err = timed(tr, "baseline.run", 0, func() error { _, err := b.Run(mdl, p); return err })
			baseRun = append(baseRun, ms(dt))
		}
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(cfg.log, "simulate probes: %d calls (%d core, %d baseline)\n", n, len(coreRun), len(baseRun))
	m["graph.profile_ms_p50"] = median(profile)
	m["core.run_ms_p50"] = median(coreRun)
	m["baseline.run_ms_p50"] = median(baseRun)
	return nil
}

// reportLateness prints how late the open-loop generator sent requests.
func reportLateness(cfg runConfig, outs []*outcome) {
	var late []float64
	for _, o := range outs {
		late = append(late, o.latenessMs())
	}
	fmt.Fprintf(cfg.log, "generator lateness: p50 %.4f ms, p99 %.4f ms, max %.4f ms over %d arrivals\n",
		median(late), percentile(late, 99), percentile(late, 100), len(late))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
