package vcpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"afmm/internal/costmodel"
)

// Graham's bounds for greedy list scheduling: for any DAG,
//
//	max(totalWork/k, criticalPath) <= makespan <= totalWork/k + criticalPath
//
// The simulator must respect both for arbitrary random DAGs.
func TestQuickGrahamBounds(t *testing.T) {
	f := func(seed int64, kRaw, nRaw uint8) bool {
		k := int(kRaw)%8 + 1
		n := int(nRaw)%60 + 2
		rng := rand.New(rand.NewSource(seed))
		g := &Graph{}
		costs := make([]float64, n)
		for i := 0; i < n; i++ {
			var tc TaskCost
			costs[i] = rng.Float64() * 1e-3
			tc[costmodel.M2L] = costs[i]
			g.AddTask(tc)
		}
		// Random forward edges (DAG by construction).
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.1 {
					g.AddDep(int32(i), int32(j))
				}
			}
		}
		// Critical path by longest-path DP over forward edges.
		longest := make([]float64, n)
		for i := n - 1; i >= 0; i-- {
			longest[i] = costs[i]
			for _, succ := range g.successors(int32(i)) {
				if costs[i]+longest[succ] > longest[i] {
					longest[i] = costs[i] + longest[succ]
				}
			}
		}
		var work, critical float64
		for i := 0; i < n; i++ {
			work += costs[i]
			if longest[i] > critical {
				critical = longest[i]
			}
		}
		spec := Spec{Cores: k, Base: DefaultSpec().Base}
		spec.SpawnOverhead = 0
		spec.CacheGain = 0
		spec.BandwidthPenalty = 0
		res := spec.Simulate(g)
		lower := work / float64(k)
		if critical > lower {
			lower = critical
		}
		upper := work/float64(k) + critical
		const eps = 1e-12
		return res.Makespan >= lower-eps && res.Makespan <= upper+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Makespan must be monotone non-increasing in the core count for the same
// graph... greedy schedules famously violate strict monotonicity on
// adversarial DAGs, but Graham's bound still caps any anomaly at 2x; check
// that cap.
func TestQuickMoreCoresNeverTwiceWorse(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 2
		rng := rand.New(rand.NewSource(seed))
		g := &Graph{}
		for i := 0; i < n; i++ {
			var tc TaskCost
			tc[costmodel.P2M] = rng.Float64() * 1e-3
			g.AddTask(tc)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.08 {
					g.AddDep(int32(i), int32(j))
				}
			}
		}
		spec := Spec{Cores: 2, Base: DefaultSpec().Base}
		spec.SpawnOverhead = 0
		m2 := spec.Simulate(g).Makespan
		spec.Cores = 8
		m8 := spec.Simulate(g).Makespan
		return m8 <= 2*m2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
