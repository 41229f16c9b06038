package stokes

import (
	"afmm/internal/core"
	"afmm/internal/kernels"
	"afmm/internal/telemetry"
)

// Kernel-speed layer for the Stokes solver: the gated float32 near field
// (the shared M2L class table is core.SharedM2L, prepared in Solve).

// nearF32ErrorEstimate bounds the relative rounding error of the float32
// Stokeslet near field (see core.Solver.nearF32ErrorEstimate).
func (s *Solver) nearF32ErrorEstimate() float64 {
	t := s.Tree
	sch := t.NearField()
	var maxRow int64
	for r := range sch.Leaves {
		tn := t.Nodes[sch.Leaves[r]].Count()
		if tn == 0 {
			continue
		}
		if v := sch.Weights[r] / int64(tn); v > maxRow {
			maxRow = v
		}
	}
	return kernels.Eps32 * float64(maxRow)
}

// updateNearPrecision runs the NearFloat32 gate for this step (see
// core.Solver.updateNearPrecision). The default target is the truncation
// bound of the current lists — the four harmonic passes carry the same
// per-pair Laplace truncation error, so the shared tree-level bound
// applies unchanged.
func (s *Solver) updateNearPrecision() {
	rec := s.Cfg.Rec
	want := s.Cfg.NearFloat32 && !s.f32Blocked
	if !want {
		if s.f32Active {
			s.f32Active = false
			s.Model.ScaleP2P(kernels.NearFloat32Speedup)
		}
		rec.SetNearPrecision(false)
		return
	}
	est := s.nearF32ErrorEstimate()
	target := s.Cfg.AccuracyTarget
	if target <= 0 {
		if s.gateEpoch != s.Tree.ListEpoch() || s.gateBound == 0 {
			s.gateBound = core.TreeTruncationBound(s.Tree, s.Cfg.P).MeanPair
			s.gateEpoch = s.Tree.ListEpoch()
		}
		target = s.gateBound
	}
	active := target > 0 && est <= target
	if !active && target > 0 {
		s.f32Blocked = true
		rec.EmitEvent(telemetry.EventPrecision, 0, 1, est, target)
	}
	if active != s.f32Active {
		if active {
			s.Model.ScaleP2P(1 / kernels.NearFloat32Speedup)
			rec.EmitEvent(telemetry.EventPrecision, 1, 0, est, target)
		} else {
			s.Model.ScaleP2P(kernels.NearFloat32Speedup)
		}
		s.f32Active = active
	}
	rec.SetNearPrecision(s.f32Active)
}

// NearFloat32Active reports whether the last gate evaluation enabled the
// float32 near field (tests and benchmarks).
func (s *Solver) NearFloat32Active() bool { return s.f32Active }

// M2LTableStats returns the current class schedule stats (zero-valued
// when the table path is off or not yet built).
func (s *Solver) M2LTableStats() (classes int, pairs, keyHits, keyMisses int64) {
	return s.m2l.Stats()
}
