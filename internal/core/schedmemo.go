package core

import (
	"scale/internal/graph"
	"scale/internal/sched"
)

// Schedules depend only on the static degree profile and the scheduling
// configuration — a fact the paper itself exploits when it precomputes later
// layers' task lists during layer 0 (§IV-A). The memo below makes the
// simulator exploit it too: one compact schedule per (profile, batch size,
// sched.Config), computed once and shared read-only across layers,
// accelerators, and concurrent sweep workers (graph.Memoize is a per-key
// singleflight over the profile, DESIGN.md §4e). The memo stores only what
// the timing engine consumes — per-group vertex counts, edge sums, and task
// counts — never materialized vertex lists.

// scheduleKey identifies one memoized schedule.
type scheduleKey struct {
	batch int
	cfg   sched.Config
}

// groupLoad is the compact workload of one scheduled task group (ring):
// everything batchTiming and the balance metrics read from a TaskGroup.
type groupLoad struct {
	edges    int64
	vertices int64
	tasks    int32
}

// batchSchedule is one scheduling batch's compact result.
type batchSchedule struct {
	vertices int64 // batch size (== len of the vertex batch)
	edges    int64 // total edges across groups
	groups   []groupLoad
}

// layerSchedule is the compact schedule of a full vertex sweep at one batch
// size — the shared, read-only unit the memo hands out.
type layerSchedule struct {
	batches []batchSchedule
}

// scheduleFor returns the profile's compact schedule for the given batch
// size and scheduling configuration, computing it at most once per profile.
func scheduleFor(p *graph.Profile, batch int, cfg sched.Config) (*layerSchedule, error) {
	return graph.Memoize(p, scheduleKey{batch: batch, cfg: cfg}, func() (*layerSchedule, error) {
		return computeSchedule(p, batch, cfg)
	})
}

// computeSchedule runs the scheduler over every batch of the profile and
// compacts the resulting task groups into group loads.
func computeSchedule(p *graph.Profile, batch int, cfg sched.Config) (*layerSchedule, error) {
	sc, err := sched.NewScheduler(cfg, false)
	if err != nil {
		return nil, err
	}
	batches := p.Batches(batch)
	ls := &layerSchedule{batches: make([]batchSchedule, 0, len(batches))}
	for _, vb := range batches {
		groups, err := sc.Schedule(p.Degrees, vb)
		if err != nil {
			return nil, err
		}
		bs := batchSchedule{vertices: int64(len(vb)), groups: make([]groupLoad, 0, len(groups))}
		for _, g := range groups {
			gl := groupLoad{edges: g.Edges(), vertices: int64(g.NumVertices()), tasks: int32(len(g.Tasks))}
			bs.edges += gl.edges
			bs.groups = append(bs.groups, gl)
		}
		ls.batches = append(ls.batches, bs)
	}
	return ls, nil
}
