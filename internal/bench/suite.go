package bench

import (
	"context"
	"fmt"
	"math"
	"sync"

	"scale/internal/arch"
	"scale/internal/baseline"
	"scale/internal/core"
	"scale/internal/fault"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/par"
	"scale/internal/redundancy"
)

// Suite holds the shared configuration of an evaluation run and caches the
// expensive inputs (redundancy analyses, reduced profiles, simulation
// results); full-size profiles are cached by graph.Dataset.Profile itself.
//
// A Suite is safe for concurrent use: every cache is a par.Memo (one
// in-flight computation per key, no big lock), and everything a cached
// computation touches — datasets, models, accelerators, the scheduler — is
// either immutable or freshly allocated per call. Reconfigure MACs, Models,
// and Datasets before sharing the suite across goroutines; result-cache
// keys carry the MAC budget, so a suite reconfigured between runs never
// serves results computed under an earlier budget.
type Suite struct {
	// MACs is the equalized MAC budget (§VII-A: 1024).
	MACs int
	// Models and Datasets select the evaluation matrix.
	Models   []string
	Datasets []string

	// pool bounds the suite's fan-outs (each); serial until a Runner
	// installs a wider budget. ctx is the active sweep's context
	// (Background when none): generators honour it at cell boundaries
	// without threading a parameter through every signature.
	poolMu sync.Mutex
	pool   *par.Pool
	ctx    context.Context

	redundancy par.Memo[string, redundancy.Analysis]
	results    par.Memo[string, *arch.Result]
	reduced    par.Memo[string, *graph.Profile]
}

// NewSuite returns the §VII-A evaluation suite: 1024 MACs, the four
// evaluated models, the five Table II datasets. The suite runs serially
// until a Runner installs a worker budget.
func NewSuite() *Suite {
	return &Suite{
		MACs:     1024,
		Models:   gnn.ModelNames(),
		Datasets: graph.DatasetNames(),
		pool:     par.NewPool(1),
	}
}

func (s *Suite) setPool(p *par.Pool) {
	s.poolMu.Lock()
	s.pool = p
	s.poolMu.Unlock()
}

// withContext installs ctx as the suite's active sweep context and returns
// a restore function. The Runner brackets RunContext/WarmContext with it;
// one sweep at a time per suite.
func (s *Suite) withContext(ctx context.Context) (restore func()) {
	s.poolMu.Lock()
	prev := s.ctx
	s.ctx = ctx
	s.poolMu.Unlock()
	return func() {
		s.poolMu.Lock()
		s.ctx = prev
		s.poolMu.Unlock()
	}
}

// Context returns the active sweep context (Background outside a sweep).
func (s *Suite) Context() context.Context {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	if s.ctx == nil {
		return context.Background()
	}
	return s.ctx
}

// each fans fn(0..n-1) over the suite's worker pool, returning the first
// error in index order. Generators use it for their independent sweep
// points; with the default serial pool it is a plain loop. Cancellation of
// the active sweep context stops launching new points.
func (s *Suite) each(n int, fn func(int) error) error {
	s.poolMu.Lock()
	p := s.pool
	ctx := s.ctx
	s.poolMu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	return p.Each(ctx, n, fn)
}

// Profile returns the full-size profile of a dataset, shared process-wide
// (graph.Dataset.Profile).
func (s *Suite) Profile(dataset string) *graph.Profile {
	return graph.MustByName(dataset).Profile()
}

// Redundancy returns the (cached) redundancy analysis of a dataset, computed
// on its materialized build (scaled for Nell/Reddit; the captured rate is a
// structural property that carries to full size — DESIGN.md §1).
func (s *Suite) Redundancy(dataset string) redundancy.Analysis {
	a, _ := s.redundancy.Get(dataset, func() (redundancy.Analysis, error) {
		return redundancy.Analyze(graph.MustByName(dataset).Build()), nil
	})
	return a
}

// ReducedProfile returns the (cached) redundancy-reduced profile of a
// dataset (Table III's SCALE+RR input). Datasets materialized at full scale
// (the citation graphs) get the exact internal/redundancy rewrite of their
// built adjacency; for Nell and Reddit — whose full edge lists are never
// materialized — the captured rate measured on the scaled build is applied
// to the full-size degree sequence.
func (s *Suite) ReducedProfile(dataset string) *graph.Profile {
	p, _ := s.reduced.Get(dataset, func() (*graph.Profile, error) {
		d := graph.MustByName(dataset)
		if d.BuildScale == 1.0 {
			reduced, _ := redundancy.Apply(d.Build())
			return reduced, nil
		}
		p := s.Profile(dataset)
		rate := s.Redundancy(dataset).CapturedRate()
		degrees := make([]int32, len(p.Degrees))
		for i, deg := range p.Degrees {
			degrees[i] = int32(math.Round(float64(deg) * (1 - rate)))
		}
		return graph.NewProfile(p.Name+"+rr", degrees), nil
	})
	return p
}

// Model builds the named model with the dataset's Table II feature chain.
func (s *Suite) Model(model, dataset string) *gnn.Model {
	return gnn.MustModel(model, graph.MustByName(dataset).FeatureDims, 1)
}

// SCALE returns the SCALE accelerator at the suite's MAC budget. An
// unsupported budget is a typed configuration error (it used to panic,
// which turned a bad -macs flag into a process kill mid-sweep).
func (s *Suite) SCALE() (*core.SCALE, error) {
	cfg, err := core.ConfigForMACs(s.MACs)
	if err != nil {
		return nil, err
	}
	return core.New(cfg)
}

// Accelerators returns SCALE followed by the four baselines, each configured
// at the suite's MAC budget and primed with the dataset's redundancy rate.
func (s *Suite) Accelerators(dataset string) ([]arch.Accelerator, error) {
	scale, err := s.SCALE()
	if err != nil {
		return nil, err
	}
	accels := []arch.Accelerator{scale}
	for _, b := range baseline.All(s.MACs) {
		if r, ok := b.(*baseline.Baseline); ok && r.Name() == "ReGNN" {
			r.RedundancyRate = s.Redundancy(dataset).CapturedRate()
		}
		accels = append(accels, b)
	}
	return accels, nil
}

// accelOrder is the canonical accelerator iteration order (the paper's
// presentation order). Generators iterate it instead of ranging over result
// maps so float accumulations visit cells in a fixed order — map iteration
// order would make exported summary digits vary run to run.
var accelOrder = []string{"AWB-GCN", "GCNAX", "ReGNN", "FlowGNN", "SCALE"}

// cellKey builds the result-cache key for one simulation. It carries the
// suite's MAC budget in addition to the accelerator's own: the two agree
// for accelerators the suite built itself, but a caller-supplied
// accelerator evaluated under a since-reconfigured suite must never collide
// with entries cached under the earlier budget.
func (s *Suite) cellKey(a arch.Accelerator, model, dataset string) string {
	return fmt.Sprintf("%s|%s|%s|macs=%d|budget=%d", a.Name(), model, dataset, a.MACs(), s.MACs)
}

// Run simulates one (accelerator, model, dataset) cell with caching.
// Concurrent calls for the same cell share one simulation.
//
// Run is a fault-isolation boundary: a panic anywhere under the simulation
// — a kernel shape violation, a Must* construction failure — is recovered
// into a *fault.PanicError, and every failure is wrapped in a
// *fault.CellError naming the failing cell. Deterministic failures (panics
// included) are cached like values; cancellation of the active sweep
// context is checked before starting and is never cached, so a later
// sweep recomputes cells that were cut short.
func (s *Suite) Run(a arch.Accelerator, model, dataset string) (*arch.Result, error) {
	if err := s.Context().Err(); err != nil {
		return nil, err
	}
	return s.results.Get(s.cellKey(a, model, dataset), func() (r *arch.Result, err error) {
		err = fault.Safely(func() error {
			var rerr error
			r, rerr = a.Run(s.Model(model, dataset), s.Profile(dataset))
			return rerr
		})
		if err != nil {
			r = nil
			err = &fault.CellError{Accelerator: a.Name(), Model: model, Dataset: dataset, Err: err}
		}
		return r, err
	})
}

// RunCell returns the results of every accelerator that supports the model
// on the dataset, SCALE first. Unknown model or dataset names are typed
// input errors, not panics: RunCell sits behind the public Compare API.
func (s *Suite) RunCell(model, dataset string) (map[string]*arch.Result, error) {
	d, err := graph.ByName(dataset)
	if err != nil {
		return nil, err
	}
	m, err := gnn.NewModel(model, d.FeatureDims, 1)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*arch.Result)
	accels, err := s.Accelerators(dataset)
	if err != nil {
		return nil, err
	}
	for _, a := range accels {
		if !a.Supports(m) {
			continue
		}
		r, err := s.Run(a, model, dataset)
		if err != nil {
			return nil, err
		}
		out[a.Name()] = r
	}
	return out, nil
}

// BaselineFor returns the reference accelerator Fig. 10 normalizes against
// for a model: AWB-GCN for SpMM-representable models, FlowGNN otherwise.
func (s *Suite) BaselineFor(model, dataset string) string {
	if !s.Model(model, dataset).MessagePassing() {
		return "AWB-GCN"
	}
	return "FlowGNN"
}
