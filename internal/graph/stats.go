package graph

import (
	"fmt"
	"math"
)

// DegreeStats summarizes a degree sequence; used by the dataset registry
// tests and the motivation-study harness (Fig. 1a).
type DegreeStats struct {
	Min, Max int
	Mean     float64
	StdDev   float64
	Gini     float64
}

// Stats computes degree statistics of a profile.
func Stats(p *Profile) DegreeStats {
	n := len(p.Degrees)
	if n == 0 {
		return DegreeStats{}
	}
	s := DegreeStats{Min: int(p.Degrees[0]), Max: int(p.Degrees[0])}
	var sum, sumSq float64
	for _, d := range p.Degrees {
		v := float64(d)
		sum += v
		sumSq += v * v
		if int(d) < s.Min {
			s.Min = int(d)
		}
		if int(d) > s.Max {
			s.Max = int(d)
		}
	}
	s.Mean = sum / float64(n)
	variance := sumSq/float64(n) - s.Mean*s.Mean
	if variance > 0 {
		s.StdDev = math.Sqrt(variance)
	}
	s.Gini = p.Gini()
	return s
}

// String formats the stats in one line.
func (s DegreeStats) String() string {
	return fmt.Sprintf("deg[min=%d max=%d mean=%.2f sd=%.2f gini=%.3f]", s.Min, s.Max, s.Mean, s.StdDev, s.Gini)
}
