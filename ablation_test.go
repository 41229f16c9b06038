// Ablation benchmarks for the design choices DESIGN.md calls out: the
// multipole acceptance parameter, the expansion order, the GPU work
// partitioner, and the observed-coefficient smoothing. Each reports the
// quantity the choice trades off.
package afmm_test

import (
	"math"
	"testing"

	"afmm"
	"afmm/internal/costmodel"
	"afmm/internal/distrib"
	"afmm/internal/octree"
	"afmm/internal/vgpu"
)

// BenchmarkAblationMAC varies the multipole acceptance parameter: a
// stricter MAC (smaller) improves accuracy but inflates the near field.
func BenchmarkAblationMAC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mac := range []float64{0.4, 0.6, 0.8} {
			sys := afmm.Plummer(1500, 1, 1, 42)
			s := afmm.NewGravitySolver(sys, afmm.GravityConfig{P: 8, S: 16, MAC: mac, NumGPUs: 1})
			st := s.Solve()
			_, accRef := afmm.AllPairsGravity(sys, s.Cfg.Kernel)
			var num, den float64
			for j := range accRef {
				num += sys.Acc[j].Sub(accRef[j]).Norm2()
				den += accRef[j].Norm2()
			}
			err := math.Sqrt(num / den)
			tag := map[float64]string{0.4: "04", 0.6: "06", 0.8: "08"}[mac]
			b.ReportMetric(float64(st.Counts[costmodel.P2P]), "p2p-mac"+tag)
			b.ReportMetric(-math.Log10(err+1e-300), "digits-mac"+tag)
		}
	}
}

// BenchmarkAblationOrderP varies the number of retained expansion terms:
// accuracy digits gained per unit of far-field cost.
func BenchmarkAblationOrderP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range []int{4, 8, 12} {
			sys := afmm.Plummer(1500, 1, 1, 42)
			s := afmm.NewGravitySolver(sys, afmm.GravityConfig{P: p, S: 16, NumGPUs: 1})
			s.Solve()
			_, accRef := afmm.AllPairsGravity(sys, s.Cfg.Kernel)
			var num, den float64
			for j := range accRef {
				num += sys.Acc[j].Sub(accRef[j]).Norm2()
				den += accRef[j].Norm2()
			}
			err := math.Sqrt(num / den)
			switch p {
			case 4:
				b.ReportMetric(-math.Log10(err+1e-300), "digits-p4")
			case 8:
				b.ReportMetric(-math.Log10(err+1e-300), "digits-p8")
			case 12:
				b.ReportMetric(-math.Log10(err+1e-300), "digits-p12")
			}
		}
	}
}

// BenchmarkAblationPartitioner compares the paper's interaction-balanced
// device partition against a naive equal-leaf-count split, reporting the
// kernel-time imbalance (max/mean) of each.
func BenchmarkAblationPartitioner(b *testing.B) {
	sys := distrib.Plummer(20000, 1, 1, 42)
	tree := octree.Build(sys, octree.Config{S: 64})
	tree.BuildLists()
	imbalance := func(c *vgpu.Cluster) float64 {
		c.Execute(tree)
		var sum, max float64
		for _, d := range c.Devices {
			sum += d.KernelTime
			if d.KernelTime > max {
				max = d.KernelTime
			}
		}
		return max / (sum / float64(len(c.Devices)))
	}
	for i := 0; i < b.N; i++ {
		paper := vgpu.NewCluster(4, vgpu.ScaledSpec(1.0/64))
		paper.Partition(tree)
		naive := vgpu.NewCluster(4, vgpu.ScaledSpec(1.0/64))
		naive.PartitionByLeafCount(tree)
		b.ReportMetric(imbalance(paper), "imbalance-paper")
		b.ReportMetric(imbalance(naive), "imbalance-naive")
	}
}

// BenchmarkAblationUniformVsAdaptive reports the compute-time penalty of
// the uniform decomposition at its best S against the adaptive tree at its
// best S on a clustered distribution — the motivation for the AFMM.
func BenchmarkAblationUniformVsAdaptive(b *testing.B) {
	sys := distrib.Plummer(10000, 1, 1, 42)
	best := func(mode octree.Mode) float64 {
		bestT := math.Inf(1)
		for _, s := range []int{8, 16, 32, 64, 128, 256, 512} {
			sysc := sys.Clone()
			cfg := afmm.GravityConfig{
				P: 4, S: s, Mode: mode, NumGPUs: 1,
				GPUSpec: vgpu.ScaledSpec(1.0 / 64),
				DryRun:  true,
			}
			cfg.CPU.Cores = 10
			sol := afmm.NewGravitySolver(sysc, cfg)
			st := sol.Solve()
			if st.Compute < bestT {
				bestT = st.Compute
			}
		}
		return bestT
	}
	for i := 0; i < b.N; i++ {
		a := best(octree.Adaptive)
		u := best(octree.Uniform)
		b.ReportMetric(u/a, "uniform-penalty")
	}
}

// BenchmarkExtensionEndpointOffload evaluates the paper's §VIII.E
// proposal: in a CPU-starved configuration (4 cores + 4 GPUs), moving P2M
// and L2P to the devices should reduce the best achievable compute time;
// in a CPU-rich configuration it should matter little. Reports the best
// compute time ratio plain/offload for both.
func BenchmarkExtensionEndpointOffload(b *testing.B) {
	sys := distrib.Plummer(20000, 1, 1, 42)
	best := func(cores int, offload bool) float64 {
		bestT := math.Inf(1)
		for _, s := range []int{32, 64, 128, 256, 384, 512, 768} {
			cfg := afmm.GravityConfig{
				P: 4, S: s, NumGPUs: 4,
				GPUSpec:          vgpu.ScaledSpec(1.0 / 6),
				DryRun:           true,
				OffloadEndpoints: offload,
			}
			cfg.CPU.Cores = cores
			sol := afmm.NewGravitySolver(sys.Clone(), cfg)
			st := sol.Solve()
			if st.Compute < bestT {
				bestT = st.Compute
			}
		}
		return bestT
	}
	for i := 0; i < b.N; i++ {
		starved := best(4, false) / best(4, true)
		rich := best(10, false) / best(10, true)
		b.ReportMetric(starved, "gain-4c4g")
		b.ReportMetric(rich, "gain-10c4g")
	}
}
