package dmem

import "math"

// Cost-weighted range partitioning: split the DFS-ordered leaves into n
// contiguous ranges whose per-leaf costs approximate each node's
// capacity share. The split is a pure function of its inputs — greedy
// over the leaf sequence, taking each leaf while doing so moves the
// accumulated cost no farther from the cut's cumulative target — so
// repeated application on a static workload returns identical cuts
// (convergence is structural, not iterative).

// computeCuts returns n+1 leaf-aligned body cuts (cuts[0] = 0,
// cuts[n] = N) splitting costs over the leaves whose End indices are
// leafEnds. shares[k] is node k's relative capacity: nil means equal
// shares, and a non-positive entry means node k receives nothing (a
// dead node's range collapses to empty).
func computeCuts(leafEnds []int32, costs []float64, shares []float64, n int) []int32 {
	cuts := make([]int32, n+1)
	if len(leafEnds) == 0 {
		return cuts
	}
	N := leafEnds[len(leafEnds)-1]
	total := 0.0
	for _, c := range costs {
		total += c
	}
	sumShare := 0.0
	for k := 0; k < n; k++ {
		if shares == nil {
			sumShare++
		} else if shares[k] > 0 {
			sumShare += shares[k]
		}
	}
	if sumShare == 0 {
		sumShare = 1
	}
	share := func(k int) float64 {
		if shares == nil {
			return 1 / sumShare
		}
		if shares[k] > 0 {
			return shares[k] / sumShare
		}
		return 0
	}

	acc, target := 0.0, 0.0
	li := 0
	for k := 1; k < n; k++ {
		target += total * share(k-1)
		for li < len(costs) &&
			math.Abs(acc+costs[li]-target) <= math.Abs(acc-target) {
			acc += costs[li]
			li++
		}
		if li > 0 {
			cuts[k] = leafEnds[li-1]
		}
	}
	cuts[n] = N
	return cuts
}

// RebalancePolicy gates cost-driven repartitioning with hysteresis, so a
// noisy imbalance signal cannot thrash the cuts every step.
type RebalancePolicy struct {
	// Threshold is the compute imbalance (max/mean) above which a
	// repartition is considered; <= 0 disables repartitioning.
	Threshold float64
	// MinGain is the minimum predicted improvement ratio (old max node
	// cost / new max node cost) required to adopt new cuts; values <= 1
	// adopt every computed repartition.
	MinGain float64
	// Cooldown is the minimum number of steps between repartitions.
	Cooldown int
}
