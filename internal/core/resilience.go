package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"afmm/internal/geom"
	"afmm/internal/sched"
	"afmm/internal/telemetry"
)

// ValidationError reports the first (lowest-index) body whose post-solve
// accumulators are non-finite — the signature of a corrupted near-field
// chunk or a numeric blow-up that must not reach the integrator.
type ValidationError struct {
	Body int
	Phi  float64
	Acc  geom.Vec3
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("core: non-finite accumulator at body %d (phi=%g acc=%v)",
		e.Body, e.Phi, e.Acc)
}

// SolveChecked runs one Solve and surfaces the step's failure modes as an
// error instead of letting them escape: a panic anywhere in the solve
// (including graph-node panics resurfaced at the graph's join), an
// unrecoverable device fault (host
// fallback disabled, rows lost), and — when Config.Validate is set — a
// non-finite accumulator found by the post-solve scan. The step loop uses
// this as its checkpoint/restore trigger.
func (s *Solver) SolveChecked() (st StepTimes, err error) {
	defer func() {
		if r := recover(); r != nil {
			if tp, ok := r.(*sched.TaskPanic); ok {
				err = tp
				return
			}
			err = fmt.Errorf("core: solve panicked: %v", r)
		}
	}()
	st = s.Solve()
	if s.Cluster != nil {
		if rep := s.Cluster.LastReport(); rep.Err != nil {
			return st, rep.Err
		}
	}
	if s.Cfg.Validate {
		rec := s.Cfg.Rec
		tok := rec.Begin(telemetry.SpanValidate, 0)
		verr := s.ValidateAccumulators()
		rec.End(tok)
		if verr != nil {
			return st, verr
		}
	}
	return st, nil
}

// ValidateAccumulators scans every visible leaf's bodies for NaN/Inf in
// Phi and Acc (a field that never writes Phi leaves it 0, which is
// finite), in parallel over the near-field weight distribution, and
// returns a *ValidationError for the lowest-index offending body (nil when
// all accumulators are finite).
func (s *Solver) ValidateAccumulators() error {
	t := s.Tree
	leaves := t.VisibleLeaves()
	if len(leaves) == 0 {
		return nil
	}
	weights := s.weightBuf[:0]
	for _, ni := range leaves {
		weights = append(weights, int64(t.Nodes[ni].Count())+1)
	}
	s.weightBuf = weights
	var worst atomic.Int64
	worst.Store(-1)
	sys := s.Sys
	s.Cfg.Pool.ParallelRangeWeighted(weights, func(lo, hi int) {
		for _, ni := range leaves[lo:hi] {
			n := &t.Nodes[ni]
			for i := n.Start; i < n.End; i++ {
				a := sys.Acc[i]
				if isFinite(sys.Phi[i]) && isFinite(a.X) && isFinite(a.Y) && isFinite(a.Z) {
					continue
				}
				// Keep the lowest offending index so the error is
				// deterministic regardless of chunk scheduling.
				for {
					cur := worst.Load()
					if cur >= 0 && cur <= int64(i) {
						break
					}
					if worst.CompareAndSwap(cur, int64(i)) {
						break
					}
				}
			}
		}
	})
	if bi := worst.Load(); bi >= 0 {
		return &ValidationError{Body: int(bi), Phi: sys.Phi[bi], Acc: sys.Acc[bi]}
	}
	return nil
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// NearFieldCapacity reports the cluster's current capacity state: the
// epoch (incremented on every device loss/derating/restore) and the
// aggregate interaction rate of the surviving devices. CPU-only solvers
// report epoch 0 and a capacity of 0.
func (s *Solver) NearFieldCapacity() (epoch int64, capacity float64) {
	if s.Cluster == nil {
		return 0, 0
	}
	return s.Cluster.CapacityEpoch(), s.Cluster.Capacity()
}
