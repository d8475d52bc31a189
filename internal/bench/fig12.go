package bench

import (
	"scale/internal/arch"
	"scale/internal/baseline"
	"scale/internal/core"
	"scale/internal/mem"
)

// Fig12 reproduces the scalability study: speedup of every accelerator at
// 512/1K/2K/4K MACs, normalized to AWB-GCN at 512 MACs, per dataset on the
// GCN model (the one every architecture supports). SCALE's array geometries
// follow §VII-B (16×16 … 64×32). Paper anchors at 4K MACs: SCALE 12.07×
// versus 7.61 / 6.49 / 7.3 / 6.68 for AWB-GCN / GCNAX / ReGNN / FlowGNN.
func (s *Suite) Fig12() (*Table, error) {
	macsList := []int{512, 1024, 2048, 4096}
	t := &Table{
		Title:  "Fig. 12 — Scalability (speedup vs AWB-GCN @ 512 MACs)",
		Header: []string{"dataset", "MACs", "AWB-GCN", "GCNAX", "ReGNN", "FlowGNN", "SCALE"},
	}
	// Fan the (dataset, MAC budget) grid across the pool; each point runs
	// all five accelerators. The AWB-GCN @ 512 normalization base is the
	// grid's own 512-MAC entry.
	points := make([]map[string]*arch.Result, len(s.Datasets)*len(macsList))
	err := s.each(len(points), func(i int) error {
		ds := s.Datasets[i/len(macsList)]
		macs := macsList[i%len(macsList)]
		m := s.Model("gcn", ds)
		p := s.Profile(ds)
		accels, err := s.scaledAccelerators(macs, ds)
		if err != nil {
			return err
		}
		vals := make(map[string]*arch.Result, len(accels))
		for _, a := range accels {
			r, err := a.Run(m, p)
			if err != nil {
				return err
			}
			vals[a.Name()] = r
		}
		points[i] = vals
		return nil
	})
	if err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	counts := map[string]int{}
	for di, ds := range s.Datasets {
		base := points[di*len(macsList)]["AWB-GCN"] // the 512-MAC entry
		for mi, macs := range macsList {
			row := []string{ds, itoa(macs)}
			vals := points[di*len(macsList)+mi]
			for _, name := range accelOrder {
				sp := arch.Speedup(base, vals[name])
				row = append(row, f2(sp))
				if macs == 4096 {
					sums[name] += sp
					counts[name]++
				}
			}
			t.AddRow(row...)
		}
	}
	for _, name := range accelOrder {
		if counts[name] > 0 {
			t.AddNote("%s mean speedup @4K MACs = %.2fx", name, sums[name]/float64(counts[name]))
		}
	}
	t.AddNote("paper @4K MACs: SCALE 12.07x vs AWB 7.61x, GCNAX 6.49x, ReGNN 7.3x, FlowGNN 6.68x")
	return t, nil
}

// scaledAccelerators returns all five accelerators at a MAC budget with
// memory bandwidth provisioned proportionally to compute (the scalability
// study's system-scaling assumption; on-chip capacity is likewise matched,
// per §VI "we have scaled the bandwidth and on-chip memory").
func (s *Suite) scaledAccelerators(macs int, dataset string) ([]arch.Accelerator, error) {
	hbm := mem.DefaultHBM()
	hbm.BytesPerCycle *= float64(macs) / 1024
	gb := mem.DefaultGlobalBuffer()
	var accels []arch.Accelerator
	for _, b := range baseline.All(macs) {
		if r, ok := b.(*baseline.Baseline); ok && r.Name() == "ReGNN" {
			r.RedundancyRate = s.Redundancy(dataset).CapturedRate()
		}
		accels = append(accels, b.WithMemory(gb, hbm))
	}
	cfg, err := core.ConfigForMACs(macs)
	if err != nil {
		return nil, err
	}
	cfg.HBM = hbm
	accels = append(accels, core.MustNew(cfg))
	return accels, nil
}
