// Cluster: the distributed-memory extension the paper anticipates (§II) —
// the AFMM partitioned across a simulated cluster of heterogeneous nodes,
// with locally-essential-tree multipole exchange, ghost-particle traffic,
// and cost-driven inter-node rebalancing on top of the per-node CPU/GPU
// balancing.
package main

import (
	"flag"
	"fmt"

	"afmm"
)

func main() {
	n := flag.Int("n", 20000, "number of bodies")
	nodes := flag.Int("nodes", 4, "virtual cluster nodes")
	gpus := flag.Int("gpus", 2, "simulated GPUs per node")
	cores := flag.Int("cores", 10, "virtual CPU cores per node")
	flag.Parse()

	// A two-cluster (colliding galaxies) distribution: equal-count
	// partitions are badly skewed, making the inter-node rebalance visible.
	sys := afmm.TwoClusters(*n, 0.3, 1, 8, 0.5, 42)

	nodeSpec := afmm.ClusterNodeSpec{
		CPU:     afmm.DefaultCPU(),
		GPUs:    *gpus,
		GPUSpec: afmm.ScaledGPU(1.0 / 64),
	}
	nodeSpec.CPU.Cores = *cores
	coreCfg := afmm.GravityConfig{
		P: 4, S: 64,
		NumGPUs: *gpus,
		GPUSpec: afmm.ScaledGPU(1.0 / 64),
		Kernel:  afmm.GravityKernel{G: 1, Softening: 0.01},
	}
	coreCfg.CPU.Cores = *cores

	solver, err := afmm.NewClusterSolver(sys, afmm.ClusterConfig{
		Core:  coreCfg,
		Nodes: afmm.HomogeneousNodes(*nodes, nodeSpec),
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("distributed AFMM: %d bodies over %d nodes (%dC+%dG each)\n\n",
		*n, *nodes, *cores, *gpus)

	show := func(tag string, rep afmm.ClusterStepReport) {
		fmt.Printf("%s: step %.5fs, imbalance %.2f, comm %.1f KiB total\n",
			tag, rep.StepTime, rep.Imbalance, float64(rep.TotalBytes)/1024)
		for k, nt := range rep.PerNode {
			fmt.Printf("  node %d: %6d bodies, compute %.5fs (cpu %.5f / gpu %.5f), "+
				"comm %.5fs, %5.1f KiB in %d messages\n",
				k, nt.Bodies, nt.Compute, nt.CPUTime, nt.GPUTime,
				nt.CommTime, float64(nt.BytesIn)/1024, nt.Messages)
		}
	}

	rep := solver.Solve()
	show("equal-count partition", rep)

	gain := solver.Rebalance()
	rep2 := solver.Solve()
	fmt.Println()
	show("after cost-based rebalance", rep2)
	fmt.Printf("\nrebalance bound improvement: %.2fx; step time %.5fs -> %.5fs\n",
		gain, rep.StepTime, rep2.StepTime)
}
