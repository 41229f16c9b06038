// Package autotune selects the FMM parameters (expansion order p and leaf
// capacity S) for a target accuracy on a given machine — the automatic
// tuning idea of the paper's reference [8] (Dachsel et al., "Automatic
// Tuning of the Fast Multipole Method Based on Integrated Performance
// Prediction") applied to this library's cost model:
//
//   - the order p comes from the empirical accuracy model of the
//     spherical-harmonics operators under the default MAC, calibrated by
//     the expansion test suite (digits ~ 1.3 + 0.48 p);
//   - the capacity S comes from a dry sweep of the virtual-machine cost
//     model at that order, picking the S with the smallest predicted
//     compute time.
package autotune

import (
	"math"

	"afmm/internal/core"
	"afmm/internal/costmodel"
	"afmm/internal/particle"
	"afmm/internal/telemetry"
)

// Request describes the tuning goal.
type Request struct {
	// TargetRMSError is the requested relative RMS acceleration error
	// (e.g. 1e-4).
	TargetRMSError float64
	// Machine is the solver configuration whose P and S fields are
	// ignored and will be chosen. All other fields (cores, GPUs,
	// profile, MAC) are respected.
	Machine core.Config
	// SGrid overrides the default logarithmic S candidates.
	SGrid []int
}

// Choice is the tuner's decision.
type Choice struct {
	P                int
	S                int
	PredictedCompute float64
	// PredictedDigits is the accuracy the order model expects.
	PredictedDigits float64
	// Sweep records the predicted compute time per candidate S.
	Sweep []SPoint
}

// SPoint is one S candidate's predicted cost.
type SPoint struct {
	S       int
	Compute float64
}

// accuracy model constants: relative RMS error digits as a function of p
// for the default MAC (0.6), fitted to the measured operator accuracy
// (p=4: 3.2 digits, p=8: 5.3, p=12: 7.0).
const (
	digitsIntercept = 1.3
	digitsPerOrder  = 0.48
	minOrder        = 2
	maxOrder        = 20
)

// OrderForTarget returns the smallest order whose modeled accuracy meets
// the target error.
func OrderForTarget(target float64) int {
	if target <= 0 {
		return maxOrder
	}
	digits := -math.Log10(target)
	p := int(math.Ceil((digits - digitsIntercept) / digitsPerOrder))
	if p < minOrder {
		p = minOrder
	}
	if p > maxOrder {
		p = maxOrder
	}
	return p
}

// DigitsForOrder returns the modeled accuracy digits of an order.
func DigitsForOrder(p int) float64 {
	return digitsIntercept + digitsPerOrder*float64(p)
}

// orderCostScale adjusts the virtual CPU coefficients, which are
// calibrated at order ~8, to the chosen order: translations are O(p^4)
// and endpoint operations O(p^2) in this implementation.
func orderCostScale(base costmodel.Coefficients, p int) costmodel.Coefficients {
	r := float64(p+1) / 9.0
	t4 := math.Pow(r, 4)
	t2 := r * r
	out := base
	out[costmodel.P2M] *= t2
	out[costmodel.L2P] *= t2
	out[costmodel.M2M] *= t4
	out[costmodel.M2L] *= t4
	out[costmodel.L2L] *= t4
	return out
}

// Tune chooses (p, S) for the system and machine. It runs timing-only
// solves (no numeric work), so it is cheap relative to a real solve.
func Tune(sys *particle.System, req Request) Choice {
	p := OrderForTarget(req.TargetRMSError)
	grid := req.SGrid
	if len(grid) == 0 {
		grid = []int{8, 16, 32, 64, 128, 256, 512, 1024}
	}
	c := Choice{P: p, PredictedDigits: DigitsForOrder(p), PredictedCompute: math.Inf(1)}
	// A recorder on the machine config traces each candidate's dry solve
	// as one step (step index = candidate index, S = the candidate).
	rec := req.Machine.Rec
	for _, s := range grid {
		if s >= sys.Len() {
			continue
		}
		cfg := req.Machine
		cfg.P = p
		cfg.S = s
		cfg.DryRun = true
		cfg.CPU = cfg.CPU.Normalized()
		cfg.CPU.Base = orderCostScale(cfg.CPU.Base, p)
		rec.StartStep(len(c.Sweep))
		solver := core.NewSolver(sys.Clone(), cfg)
		st := solver.Solve()
		rec.Update(func(r *telemetry.StepRecord) { r.Step, r.S, r.State = len(c.Sweep), s, "tune" })
		rec.EndStep()
		c.Sweep = append(c.Sweep, SPoint{S: s, Compute: st.Compute})
		if st.Compute < c.PredictedCompute {
			c.PredictedCompute = st.Compute
			c.S = s
		}
	}
	if c.S == 0 {
		c.S = 64
		c.PredictedCompute = 0
	}
	return c
}
