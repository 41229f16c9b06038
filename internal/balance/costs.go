package balance

// LBCostModel charges virtual time for the balancing operations themselves
// (tree rebuilds, Enforce_S walks, list rebuilds for prediction, and
// Collapse/PushDown batches), so the per-step totals of Figure 8 and the
// overhead percentages of Table II include the cost of balancing, not just
// its benefit. Costs scale with the work each operation touches and are
// divided over the virtual cores (construction and maintenance are
// task-parallel in the paper).
type LBCostModel struct{}

// The cost model's coefficients.
const (
	// partitionPerBodyLevel: seconds to route one body down one level
	// during a rebuild or repartition.
	partitionPerBodyLevel = 12e-9
	// refillPerBodyLevel: seconds to re-bin one body down one level of
	// the existing tree.
	refillPerBodyLevel = 18e-9
	// listPerPair: seconds per interaction-list pair visited during the
	// dual traversal that prediction requires.
	listPerPair = 60e-9
	// walkPerNode: seconds per visible node for tree walks.
	walkPerNode = 40e-9
	// parallelEff discounts the core count for these memory-bound phases.
	parallelEff = 0.7
)

func (LBCostModel) cores(s Target) float64 {
	k := float64(s.Cores())
	if k < 1 {
		k = 1
	}
	return k * parallelEff
}

// avgLeafDepth returns the body-weighted mean visible-leaf depth.
func avgLeafDepth(s Target) float64 {
	var sum, n float64
	t := s.Octree()
	t.WalkVisible(func(ni int32) {
		nd := &t.Nodes[ni]
		if nd.IsVisibleLeaf() {
			sum += float64(nd.Count()) * float64(nd.Level)
			n += float64(nd.Count())
		}
	})
	if n == 0 {
		return 0
	}
	return sum / n
}

// rebuildCost charges for a full tree rebuild: every body partitioned once
// per level of its final depth (estimated from the current tree).
func (m LBCostModel) rebuildCost(s Target) float64 {
	depth := avgLeafDepth(s) + 1
	return float64(s.System().Len()) * depth * partitionPerBodyLevel / m.cores(s)
}

// RefillCost charges for re-binning all bodies into the existing
// structure; exported for the simulation driver, which performs a refill
// every step for every strategy.
func (m LBCostModel) RefillCost(s Target) float64 {
	depth := avgLeafDepth(s) + 1
	return float64(s.System().Len()) * depth * refillPerBodyLevel / m.cores(s)
}

// enforceCost charges for the Enforce_S walk plus its repartitions.
func (m LBCostModel) enforceCost(s Target, collapses, pushdowns int) float64 {
	st := s.Octree().ComputeStats()
	walk := float64(st.VisibleNodes) * walkPerNode
	// A pushdown repartitions roughly S bodies one level; collapses only
	// flip flags.
	part := float64(pushdowns) * float64(s.S()) * partitionPerBodyLevel
	return (walk + part) / m.cores(s)
}

// predictCost charges for one prediction: the list maintenance the
// prediction actually performed — the dual-traversal pair visits reported
// by the tree, which are zero for a cache hit, the local repair size
// after a small edit batch, and the full traversal only when the lists
// were really rebuilt — plus the counting walk.
func (m LBCostModel) predictCost(s Target) float64 {
	st := s.Octree().ComputeStats()
	pairs := float64(s.Octree().LastListWork().Pairs)
	return (pairs*listPerPair + float64(st.VisibleNodes)*walkPerNode) / m.cores(s)
}

// modifyCost charges for applying (or reverting) a Collapse/PushDown batch.
func (m LBCostModel) modifyCost(s Target, batch []int32) float64 {
	var bodies float64
	t := s.Octree()
	for _, ni := range batch {
		bodies += float64(t.Nodes[ni].Count())
	}
	return bodies * partitionPerBodyLevel / m.cores(s)
}
