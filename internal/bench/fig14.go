package bench

import "scale/internal/core"

// fig14Rings is the forced ring-size sweep of Fig. 14.
var fig14Rings = []int{2, 4, 8, 16, 32, 64, 128, 256}

// Fig14 reproduces the ring-size sensitivity study: 2-layer GCN on Cora and
// PubMed with the ring size forced across the sweep, reporting per-layer and
// total cycles normalized to the best configuration. The paper's shape:
// layer 1 prefers ring 64 (small rings refetch weights off-chip), layer 2's
// tiny weight matrices prefer many small rings with duplicated weights.
func (s *Suite) Fig14() (*Table, error) {
	t := &Table{
		Title:  "Fig. 14 — Ring-size sensitivity (2-layer GCN, cycles normalized to sweep best)",
		Header: []string{"dataset", "ring", "layer1", "layer2", "total"},
	}
	datasets := []string{"cora", "pubmed"}
	type run struct {
		l1, l2, total int64
	}
	runs := make([]run, len(datasets)*len(fig14Rings))
	err := s.each(len(runs), func(i int) error {
		ds := datasets[i/len(fig14Rings)]
		cfg, err := core.ConfigForMACs(s.MACs)
		if err != nil {
			return err
		}
		cfg.RingSize = fig14Rings[i%len(fig14Rings)]
		r, err := core.MustNew(cfg).Run(s.Model("gcn", ds), s.Profile(ds))
		if err != nil {
			return err
		}
		runs[i] = run{r.Layers[0].Cycles, r.Layers[1].Cycles, r.Cycles}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for di, ds := range datasets {
		sweep := runs[di*len(fig14Rings) : (di+1)*len(fig14Rings)]
		best := run{1 << 62, 1 << 62, 1 << 62}
		for _, cur := range sweep {
			if cur.l1 < best.l1 {
				best.l1 = cur.l1
			}
			if cur.l2 < best.l2 {
				best.l2 = cur.l2
			}
			if cur.total < best.total {
				best.total = cur.total
			}
		}
		for ri, ring := range fig14Rings {
			cur := sweep[ri]
			t.AddRow(ds, itoa(ring),
				f2(float64(cur.l1)/float64(best.l1)),
				f2(float64(cur.l2)/float64(best.l2)),
				f2(float64(cur.total)/float64(best.total)))
		}
	}
	t.AddNote("paper: Cora layer 1 prefers ring 64; undersized rings pay off-chip weight refetch")
	return t, nil
}
