// Package dse explores the SCALE hardware design space: PE-array geometry,
// global-buffer capacity, and local-buffer provisioning, evaluated against a
// workload for latency, area, and energy. The paper fixes one §VII-A design
// point; this package turns the simulator into the holistic
// architecture/dataflow exploration framework the evaluation implies
// (cf. the authors' GLSVLSI'23 companion work), selecting Pareto-optimal
// configurations or the fastest design under an area budget.
package dse

import (
	"context"
	"fmt"
	"sort"

	"scale/internal/core"
	"scale/internal/energy"
	"scale/internal/fault"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/par"
)

// Point is one evaluated design configuration.
type Point struct {
	Rows, Cols     int
	GBBytes        int64
	UpdateBufBytes int64

	// Evaluated metrics.
	Cycles   int64
	AreaMM2  float64
	EnergyPJ float64
}

// EDP returns the energy-delay product (pJ·cycles), the standard scalar for
// ranking design points.
func (p Point) EDP() float64 { return p.EnergyPJ * float64(p.Cycles) }

// String summarizes the point.
func (p Point) String() string {
	return fmt.Sprintf("%dx%d GB=%dKB buf=%dKB: %d cycles, %.1f mm², %.2f mJ",
		p.Rows, p.Cols, p.GBBytes>>10, p.UpdateBufBytes>>10,
		p.Cycles, p.AreaMM2, p.EnergyPJ/1e9)
}

// Space enumerates the candidate configurations.
type Space struct {
	Geometries     [][2]int
	GBBytes        []int64
	UpdateBufBytes []int64
}

// DefaultSpace covers the §VII-B geometries around the paper's design point,
// halved/doubled buffer capacities.
func DefaultSpace() Space {
	return Space{
		Geometries:     [][2]int{{16, 16}, {32, 16}, {32, 32}, {64, 32}},
		GBBytes:        []int64{2 << 20, 4 << 20, 8 << 20},
		UpdateBufBytes: []int64{2 << 10, 4 << 10, 8 << 10},
	}
}

// Size returns the number of points in the space.
func (s Space) Size() int {
	return len(s.Geometries) * len(s.GBBytes) * len(s.UpdateBufBytes)
}

// candidates enumerates the space's configurations in its canonical order
// (geometry-major, then global buffer, then update buffer).
func (s Space) candidates() []Point {
	cands := make([]Point, 0, s.Size())
	for _, geom := range s.Geometries {
		for _, gb := range s.GBBytes {
			for _, buf := range s.UpdateBufBytes {
				cands = append(cands, Point{
					Rows: geom[0], Cols: geom[1], GBBytes: gb, UpdateBufBytes: buf,
				})
			}
		}
	}
	return cands
}

// ExploreContext evaluates the space on a par.Pool of `workers` goroutines
// (workers < 2 runs serially). Each design point is an independent
// simulation, so evaluations fan out freely; results come back in the
// space's canonical enumeration order regardless of completion order, and
// the reported error (if any) is the first in that order. The output is
// byte-for-byte identical to a serial run's.
//
// An exploration that would run for hours over a large space can be
// cancelled or time-bounded through ctx, stopping at a design-point
// boundary (no new points start; points in flight finish). Point
// evaluations are panic-contained: a panicking simulation surfaces as a
// typed *fault.PanicError instead of killing the campaign, and — like any
// point error — stops new points from launching. The deterministic
// first-error-in-canonical-order guarantee is preserved.
func ExploreContext(ctx context.Context, space Space, m *gnn.Model, p *graph.Profile, workers int) ([]Point, error) {
	if space.Size() == 0 {
		return nil, fmt.Errorf("dse: empty space: %w", fault.ErrBadConfig)
	}
	cands := space.candidates()
	evaluated := make([]*Point, len(cands))
	err := par.NewPool(max(workers, 1)).Each(ctx, len(cands), func(i int) (err error) {
		evaluated[i], err = safeEvaluate(cands[i], m, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	var points []Point
	for _, pt := range evaluated {
		if pt != nil {
			points = append(points, *pt)
		}
	}
	return points, nil
}

// safeEvaluate contains a panicking point evaluation: the worker that hit it
// reports a typed error naming the design point instead of tearing down the
// whole exploration.
func safeEvaluate(cand Point, m *gnn.Model, p *graph.Profile) (pt *Point, err error) {
	err = fault.Safely(func() error {
		var eerr error
		pt, eerr = evaluate(cand, m, p)
		return eerr
	})
	if err != nil {
		return nil, fmt.Errorf("dse: point %dx%d GB=%d buf=%d: %w",
			cand.Rows, cand.Cols, cand.GBBytes, cand.UpdateBufBytes, err)
	}
	return pt, nil
}

// evaluate simulates one candidate and fills in its metrics. A nil point
// with nil error means the configuration failed validation (skipped).
func evaluate(cand Point, m *gnn.Model, p *graph.Profile) (*Point, error) {
	cfg := core.DefaultConfig()
	cfg.Rows, cfg.Cols = cand.Rows, cand.Cols
	cfg.GB.CapacityBytes = cand.GBBytes
	cfg.UpdateBufBytes = cand.UpdateBufBytes
	cfg.WeightBufBytes = cand.UpdateBufBytes / 2
	cfg.AggBufBytes = cand.UpdateBufBytes / 2
	accel, err := core.New(cfg)
	if err != nil {
		return nil, nil
	}
	r, err := accel.Run(m, p)
	if err != nil {
		return nil, err
	}
	area := energy.Area(energy.DefaultAreaParams(), cand.GBBytes,
		int64(cfg.NumPEs())*cfg.LocalBufBytes(), cfg.TotalMACs(), cfg.Rows)
	e := energy.Estimate(energy.DefaultParams(), r.Traffic, r.Cycles)
	cand.Cycles = r.Cycles
	cand.AreaMM2 = area.Total()
	cand.EnergyPJ = e.Total()
	return &cand, nil
}

// Pareto returns the subset of points not dominated in (cycles, area):
// a point is kept iff no other point is at least as good on both axes and
// strictly better on one. The result is sorted by ascending cycles.
func Pareto(points []Point) []Point {
	var front []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.Cycles <= p.Cycles && q.AreaMM2 <= p.AreaMM2 &&
				(q.Cycles < p.Cycles || q.AreaMM2 < p.AreaMM2) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].Cycles != front[j].Cycles {
			return front[i].Cycles < front[j].Cycles
		}
		return front[i].AreaMM2 < front[j].AreaMM2
	})
	return front
}

// BestUnderArea returns the fastest point whose area fits the budget (mm²),
// or an error if none fits.
func BestUnderArea(points []Point, budget float64) (Point, error) {
	best := Point{Cycles: 1<<63 - 1}
	found := false
	for _, p := range points {
		if p.AreaMM2 > budget {
			continue
		}
		if !found || p.Cycles < best.Cycles ||
			(p.Cycles == best.Cycles && p.AreaMM2 < best.AreaMM2) {
			best = p
			found = true
		}
	}
	if !found {
		return Point{}, fmt.Errorf("dse: no configuration fits %.1f mm²", budget)
	}
	return best, nil
}

// BestEDP returns the point with the lowest energy-delay product.
func BestEDP(points []Point) (Point, error) {
	if len(points) == 0 {
		return Point{}, fmt.Errorf("dse: no points")
	}
	best := points[0]
	for _, p := range points[1:] {
		if p.EDP() < best.EDP() {
			best = p
		}
	}
	return best, nil
}
