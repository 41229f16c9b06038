// Package costmodel implements the paper's time-prediction machinery
// (§IV.D): per-operation cost coefficients derived from observed times,
// and the predicted CPU/GPU runtimes
//
//	T_cpu = sum_op M(op) * c(op)        (P2M, M2M, M2L, L2L, L2P)
//	T_gpu = M(P2P) * c(P2P)
//
// for a candidate tree, where M(op) counts how many times each operation
// would be applied. Coefficients are observational: after each step they
// are re-derived as total-time / application-count, so the single CPU
// coefficient absorbs core count, memory behaviour and expansion order,
// and the GPU coefficient tracks the device's current efficiency on the
// current tree shape.
package costmodel

import (
	"fmt"

	"afmm/internal/octree"
)

// Op identifies one of the six FMM operations.
type Op int

// The six operations of the cost model.
const (
	P2M Op = iota
	M2M
	M2L
	L2L
	L2P
	P2P
	NumOps
)

var opNames = [NumOps]string{"P2M", "M2M", "M2L", "L2L", "L2P", "P2P"}

func (o Op) String() string {
	if o < 0 || o >= NumOps {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// Counts holds M(op) for a tree, in the model's units (see octree.OpCounts).
type Counts [NumOps]int64

// FromTree converts octree operation counts.
func FromTree(c octree.OpCounts) Counts {
	return Counts{c.P2M, c.M2M, c.M2L, c.L2L, c.L2P, c.P2P}
}

// Coefficients are the observed per-application costs in seconds.
// CPU coefficients describe the whole CPU subsystem (they already include
// the division of work over cores); the P2P coefficient describes the
// whole GPU system (max kernel time over total interactions), as in the
// paper.
type Coefficients [NumOps]float64

// Observation is one step's observed totals: time spent per operation and
// number of applications.
type Observation struct {
	Time   [NumOps]float64
	Counts Counts
}

// Model accumulates observations and produces predictions.
type Model struct {
	Coef Coefficients
	// seen marks coefficients that have at least one observation;
	// unobserved coefficients stay at their prior.
	seen [NumOps]bool
	// Smoothing in [0,1): weight given to the previous coefficient when
	// a new observation arrives. 0 reproduces the paper's
	// last-observation behaviour; a little smoothing stabilizes
	// prediction under noisy virtual-GPU efficiency swings.
	Smoothing float64
}

// NewModel returns a model primed with prior coefficients (used before any
// observation exists, e.g. for the very first prediction).
func NewModel(prior Coefficients) *Model {
	return &Model{Coef: prior}
}

// Observe folds one step's measurements into the coefficients.
func (m *Model) Observe(o Observation) {
	for op := Op(0); op < NumOps; op++ {
		n := o.Counts[op]
		if n <= 0 {
			continue
		}
		c := o.Time[op] / float64(n)
		if m.seen[op] {
			c = m.Smoothing*m.Coef[op] + (1-m.Smoothing)*c
		}
		m.Coef[op] = c
		m.seen[op] = true
	}
}

// ScaleGPU multiplies the P2P coefficient by factor — the immediate
// re-derivation of the GPU-side prediction when the near-field capacity
// changes (device loss or derating): the same interaction count spread
// over capacity C' costs C/C' times the old coefficient. The next
// Observe refines the estimate from the measured degraded step; ScaleGPU
// keeps predictions honest in between.
func (m *Model) ScaleGPU(factor float64) {
	if factor > 0 {
		m.Coef[P2P] *= factor
	}
}

// PredictCPU returns the predicted far-field (CPU) time for the counts.
func (m *Model) PredictCPU(c Counts) float64 {
	var t float64
	for _, op := range []Op{P2M, M2M, M2L, L2L, L2P} {
		t += float64(c[op]) * m.Coef[op]
	}
	return t
}

// PredictGPU returns the predicted near-field (GPU) time.
func (m *Model) PredictGPU(c Counts) float64 {
	return float64(c[P2P]) * m.Coef[P2P]
}

// PredictCompute returns the predicted compute time — the max of the CPU
// and GPU predictions, matching the paper's Compute Time definition.
func (m *Model) PredictCompute(c Counts) float64 {
	cpu := m.PredictCPU(c)
	gpu := m.PredictGPU(c)
	if cpu > gpu {
		return cpu
	}
	return gpu
}
