package core

import (
	"math"

	"afmm/internal/expansion"
)

// ErrorBound summarizes the a-priori truncation error of the current
// interaction lists: the classical per-pair bound (a/(d-a))^(p+1) for a
// multipole of radius a accepted at center distance d, aggregated over all
// translated V-list pairs (a pair the near-field schedule sums directly is
// exact and carries no truncation error).
type ErrorBound struct {
	// MaxPair is the worst single-pair relative truncation bound.
	MaxPair float64
	// MeanPair is the interaction-weighted mean bound.
	MeanPair float64
	// Pairs is the number of M2L pairs inspected.
	Pairs int
}

// EstimateError computes the truncation-error bound of the current tree
// and lists. It reflects the configured expansion order and the MAC: a
// smaller MAC or a larger P tightens both fields. BuildLists must be
// current (Solve and Predict leave it so).
func (s *Solver) EstimateError() ErrorBound {
	t, p := s.Tree, s.Cfg.P
	var b ErrorBound
	var wsum, w float64
	sqrt3 := math.Sqrt(3)
	t.NearField() // the direct masks follow the current occupancy
	t.WalkVisible(func(ni int32) {
		n := &t.Nodes[ni]
		direct := t.DirectMask(ni)
		for k, vi := range n.V {
			if direct[k] {
				continue
			}
			src := &t.Nodes[vi]
			a := sqrt3 * src.Box.Half
			// The evaluation points lie within the target cell, so the
			// effective distance is reduced by the target radius.
			d := n.Box.Center.Sub(src.Box.Center).Norm() - sqrt3*n.Box.Half
			e := expansion.TruncationError(p, a, d)
			if e > b.MaxPair {
				b.MaxPair = e
			}
			weight := float64(n.Count()) * float64(src.Count())
			wsum += e * weight
			w += weight
			b.Pairs++
		}
	})
	if w > 0 {
		b.MeanPair = wsum / w
	}
	return b
}
