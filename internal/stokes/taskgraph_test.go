package stokes

import (
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/kernels"
	"afmm/internal/sched"
)

// TestTaskGraphBitIdenticalStokes: the dependency-driven schedule — one
// far-field chain whose chunks compute all four harmonic passes, running
// against the Stokeslet near field and joined only at the combined L2P —
// must produce exactly the same velocities as the fork-join path, on 2-
// and 4-worker pools, before and after the balancer's tree edits.
func TestTaskGraphBitIdenticalStokes(t *testing.T) {
	k := kernels.Stokeslet{Mu: 0.9, Eps: 1e-3}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cpu-only", Config{P: 6, S: 24, Kernel: k}},
		{"gpus", Config{P: 6, S: 24, Kernel: k, NumGPUs: 2}},
		{"gpus-reserved", Config{P: 6, S: 24, Kernel: k, NumGPUs: 2, ReservedDrivers: 1}},
		{"rotated", Config{P: 6, S: 24, Kernel: k, UseRotatedTranslations: true}},
	} {
		for _, workers := range []int{2, 4} {
			t.Run(tc.name, func(t *testing.T) {
				sysA := distrib.Plummer(900, 1, 1, 37)
				randomForces(sysA, 41)
				sysB := sysA.Clone()

				cfgA := tc.cfg
				cfgA.Pool = sched.NewPool(workers)
				cfgA.TaskGraph = true
				cfgB := tc.cfg
				cfgB.Pool = sched.NewPool(workers)
				a := NewSolver(sysA, cfgA)
				b := NewSolver(sysB, cfgB)
				stA := a.Solve()
				b.Solve()
				if !stA.Host.Overlapped {
					t.Fatal("task-graph Stokes solve did not report Overlapped")
				}
				if r := cfgA.Pool.Reserved(); r != 0 {
					t.Fatalf("pool still has %d reserved workers after Solve", r)
				}

				compare := func() {
					t.Helper()
					phiA, phiB := sysA.PhiInInputOrder(), sysB.PhiInInputOrder()
					va, vb := sysA.AccInInputOrder(), sysB.AccInInputOrder()
					for i := range va {
						if va[i] != vb[i] {
							t.Fatalf("velocity not bit-identical at body %d: %v vs %v",
								i, va[i], vb[i])
						}
						if phiA[i] != phiB[i] {
							t.Fatalf("pressure not bit-identical at body %d: %x vs %x",
								i, phiA[i], phiB[i])
						}
					}
				}
				compare()

				// Identity must survive Refill + EnforceS (the balancer's
				// incremental edits change chunk geometry, not results).
				for i := range sysA.Pos {
					d := sysA.Pos[i].Scale(0.04)
					sysA.Pos[i] = sysA.Pos[i].Add(d)
					sysB.Pos[i] = sysB.Pos[i].Add(d)
				}
				a.Refill()
				b.Refill()
				a.EnforceS()
				b.EnforceS()
				a.Solve()
				b.Solve()
				compare()
			})
		}
	}
}

// TestSolveAllocationCeiling is the Stokes allocs/step gate (see
// core.TestSolveAllocationCeiling): a warmed Solve allocates per-step
// structures only — the virtual-CPU replay's graph, chunk closures, the
// host task graph — never per translation, V list or body, in either
// execution mode. The ceilings are 1.5x the measured counts (fork-join
// 1747, task graph 2016 at this size; with a far-field chain per harmonic
// pass the task graph made 2536).
func TestSolveAllocationCeiling(t *testing.T) {
	for _, tc := range []struct {
		name    string
		graph   bool
		ceiling float64
	}{
		{"fork-join", false, 2600},
		{"task-graph", true, 3000},
	} {
		sys := distrib.UniformCube(2000, 1, 3)
		randomForces(sys, 5)
		s := NewSolver(sys, Config{P: 4, S: 32, TaskGraph: tc.graph, Pool: sched.NewPool(2)})
		s.Solve()
		s.Solve()
		if got := testing.AllocsPerRun(5, func() { s.Solve() }); got > tc.ceiling {
			t.Errorf("%s: warmed Solve makes %.0f allocations, ceiling %.0f", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %.0f allocations per warmed Solve", tc.name, got)
		}
	}
}
