package baseline

import (
	"scale/internal/graph"
	"scale/internal/sched"
)

// balanceKey identifies one memoized vertex-chunk partition balance: the
// partition depends only on the degree profile (carried by the memo's owner)
// and the engine count.
type balanceKey struct {
	units int
}

// balanceVal carries the raw (pre-smoothing) mean/max balances of the
// vertex-aware full-graph partition.
type balanceVal struct {
	edge, vertex float64
}

// vertexChunkBalance returns the edge and vertex balance of partitioning the
// whole profile into nUnits vertex chunks (the static assignment every
// baseline starts from), computed at most once per (profile, nUnits) and
// shared across concurrent sweep workers. The balance metrics consume only
// per-group counts, so the schedule is computed in compact mode.
func vertexChunkBalance(p *graph.Profile, nUnits int) (balanceVal, error) {
	return graph.Memoize(p, balanceKey{units: nUnits}, func() (balanceVal, error) {
		cfg := sched.Config{NumTasks: nUnits, NumGroups: nUnits, Policy: sched.VertexAware}
		sc, err := sched.NewScheduler(cfg, false)
		if err != nil {
			return balanceVal{}, err
		}
		groups, err := sc.Schedule(p.Degrees, p.Vertices())
		if err != nil {
			return balanceVal{}, err
		}
		return balanceVal{edge: sched.EdgeBalance(groups), vertex: sched.VertexBalance(groups)}, nil
	})
}
