package experiments

import (
	"afmm/internal/core"
	"afmm/internal/distrib"
	"afmm/internal/expansion"
	"afmm/internal/geom"
	"afmm/internal/kernels"
	"afmm/internal/octree"
	"afmm/internal/sched"
	"afmm/internal/sim"
)

// KernelsBenchResult is the machine-readable payload of the "kernels"
// benchmark (written to BENCH_kernels.json by afmm-bench). All times are
// host wall clock; every phase runs serially on one core so the numbers
// are raw kernel rates, not scheduling artifacts.
//
// The M2L phase replays the exact downward-pass translation workload of a
// Plummer tree — every V-list pair, in node order — through three
// implementations: the shared class table (M2LBatchTable), its uncached
// reference form (M2LBatch: the same kernel, setup recomputed per pair),
// and the per-pair rotated operator (M2LRotated). The P2P phase measures pair
// rates of P2P as dispatched on the host (the packed body where it has
// AVX2) against the scalar reference P2PScalar on a near-field-shaped call
// (one leaf row against a long source span). The end-to-end phase times
// whole solver steps at the same N and P with the class table on and off.
type KernelsBenchResult struct {
	N    int   `json:"n"`
	S    int   `json:"s"`
	P    int   `json:"p"`
	Seed int64 `json:"seed"`

	// M2L translation workload (from the real tree's V lists).
	M2LPairs       int64   `json:"m2l_pairs"`
	M2LClasses     int     `json:"m2l_classes"`
	M2LRotations   int     `json:"m2l_rotations"`
	M2LRotCoverage float64 `json:"m2l_rot_coverage"`
	TableBuildNs   int64   `json:"table_build_ns"`
	// Nanoseconds per translation.
	M2LNsTable     float64 `json:"m2l_ns_table"`
	M2LNsReference float64 `json:"m2l_ns_reference"`
	M2LNsDirect    float64 `json:"m2l_ns_direct"`
	// Headline ratios: table throughput over the uncached reference form
	// and over the per-pair rotated operator.
	M2LSpeedupVsReference float64 `json:"m2l_speedup_vs_reference"`
	M2LSpeedupVsDirect    float64 `json:"m2l_speedup_vs_direct"`

	// P2P pair rates (pairs per second), near-field call shape.
	P2PTargets int `json:"p2p_targets"`
	P2PSources int `json:"p2p_sources"`

	GravPairRatePacked float64 `json:"grav_pair_rate_packed"`
	GravPairRateScalar float64 `json:"grav_pair_rate_scalar"`
	GravPackedSpeedup  float64 `json:"grav_packed_speedup"`

	StokesPairRatePacked float64 `json:"stokes_pair_rate_packed"`
	StokesPairRateScalar float64 `json:"stokes_pair_rate_scalar"`
	StokesPackedSpeedup  float64 `json:"stokes_packed_speedup"`

	// End-to-end solver steps, single-worker pool.
	EndToEndSteps   int     `json:"end_to_end_steps"`
	StepNsTable     int64   `json:"step_ns_table"`
	StepNsNoTable   int64   `json:"step_ns_no_table"`
	EndToEndSpeedup float64 `json:"end_to_end_speedup"`
}

// Kernels measures the raw kernel-speed work: class-table M2L against its
// uncached reference form and the per-pair rotated operator on a real tree's
// translation workload, packed P2P pair rates against the scalar
// reference, and the end-to-end step effect of the table.
func Kernels(p Params) KernelsBenchResult {
	if p.N <= 0 {
		p.N = 100000
	}
	p.setDefaults()
	const s = 64
	res := KernelsBenchResult{N: p.N, S: s, P: p.P, Seed: p.Seed}
	rng := newRand(p.Seed)

	// ---- Phase 1: M2L translation workload --------------------------------
	sys := distrib.Plummer(p.N, 1, 1, p.Seed)
	tr := octree.Build(sys, octree.Config{S: s})
	tr.BuildLists()
	cls := tr.M2LClasses()
	res.M2LPairs = cls.Pairs
	res.M2LClasses = cls.Classes()

	// Random order-P multipoles for every node; magnitudes O(1) so the
	// accumulations stay finite over the whole sweep.
	mp := make([]expansion.Expansion, len(tr.Nodes))
	for i := range mp {
		mp[i] = expansion.NewExpansion(p.P)
		for c := range mp[i].C {
			mp[i].C[c] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}

	tb := expansion.NewM2LTable(p.P)
	tm := sched.StartTimer()
	nrot := tb.Plan(cls.Dirs, cls.PairsPerClass, 0)
	tb.BuildRotRange(0, nrot) // serial: the build cost a 1-core host pays
	res.TableBuildNs = tm.Elapsed().Nanoseconds()
	res.M2LRotations = tb.Rotations()
	var covered int64
	for c := range cls.Dirs {
		if tb.HasRot(c) {
			covered += cls.PairsPerClass[c]
		}
	}
	if cls.Pairs > 0 {
		res.M2LRotCoverage = float64(covered) / float64(cls.Pairs)
	}

	// One sweep = every V-list pair once, node order, like the downward
	// pass. Each variant keeps its own workspace.
	var srcs []expansion.M2LSource
	sweep := func(w *expansion.Workspace, l expansion.Expansion, f func(l expansion.Expansion, to geom.Vec3, srcs []expansion.M2LSource, row []int32)) {
		for ni := range tr.Nodes {
			n := &tr.Nodes[ni]
			if len(n.V) == 0 {
				continue
			}
			srcs = srcs[:0]
			for _, vi := range n.V {
				srcs = append(srcs, expansion.M2LSource{M: mp[vi], From: tr.Nodes[vi].Box.Center})
			}
			f(l, n.Box.Center, srcs, cls.Row(int32(ni)))
		}
	}
	wTab, wRef, wDir := expansion.NewWorkspace(p.P), expansion.NewWorkspace(p.P), expansion.NewWorkspace(p.P)
	lTab, lRef, lDir := expansion.NewExpansion(p.P), expansion.NewExpansion(p.P), expansion.NewExpansion(p.P)
	const reps = 3
	var nsTable, nsRef, nsDirect int64
	for rep := 0; rep < reps; rep++ {
		// Alternate variants within each repetition so slow host-speed
		// drift hits all three equally.
		tm = sched.StartTimer()
		sweep(wTab, lTab, func(l expansion.Expansion, to geom.Vec3, srcs []expansion.M2LSource, row []int32) {
			wTab.M2LBatchTable(l, to, srcs, row, tb)
		})
		nsTable += tm.Elapsed().Nanoseconds()

		tm = sched.StartTimer()
		sweep(wRef, lRef, func(l expansion.Expansion, to geom.Vec3, srcs []expansion.M2LSource, row []int32) {
			wRef.M2LBatch(l, to, srcs)
		})
		nsRef += tm.Elapsed().Nanoseconds()

		tm = sched.StartTimer()
		sweep(wDir, lDir, func(l expansion.Expansion, to geom.Vec3, srcs []expansion.M2LSource, row []int32) {
			for i := range srcs {
				wDir.M2LRotated(l, to, srcs[i].M, srcs[i].From)
			}
		})
		nsDirect += tm.Elapsed().Nanoseconds()
	}
	den := float64(cls.Pairs) * reps
	if den > 0 {
		res.M2LNsTable = float64(nsTable) / den
		res.M2LNsReference = float64(nsRef) / den
		res.M2LNsDirect = float64(nsDirect) / den
	}
	if res.M2LNsTable > 0 {
		res.M2LSpeedupVsReference = res.M2LNsReference / res.M2LNsTable
		res.M2LSpeedupVsDirect = res.M2LNsDirect / res.M2LNsTable
	}

	// ---- Phase 2: P2P pair rates ------------------------------------------
	// Near-field call shape: one leaf row of S targets against a long span
	// of sources, repeated until the pair count is statistically
	// meaningful (~2e8 pairs per variant).
	const nt, ns = s, 4096
	res.P2PTargets, res.P2PSources = nt, ns
	xt := make([]geom.Vec3, nt)
	ys := make([]geom.Vec3, ns)
	ms := make([]float64, ns)
	fs := make([]geom.Vec3, ns)
	for i := range xt {
		xt[i] = randUnit(rng).Scale(0.5 + rng.Float64())
	}
	for j := range ys {
		ys[j] = randUnit(rng).Scale(0.5 + rng.Float64())
		ms[j] = rng.Float64()
		fs[j] = randUnit(rng)
	}
	phi := make([]float64, nt)
	acc := make([]geom.Vec3, nt)
	vel := make([]geom.Vec3, nt)
	// Each variant runs in interleaved rounds so slow host-speed drift
	// (thermal, noisy neighbors) cancels instead of biasing whichever
	// variant ran later. ~2e8 pairs per variant total.
	const p2pRounds, p2pRepsPerRound = 8, 100
	pairRates := func(fs ...func()) []float64 {
		for _, f := range fs {
			f() // warm up
		}
		total := make([]int64, len(fs))
		for round := 0; round < p2pRounds; round++ {
			for vi, f := range fs {
				tm := sched.StartTimer()
				for r := 0; r < p2pRepsPerRound; r++ {
					f()
				}
				total[vi] += tm.Elapsed().Nanoseconds()
			}
		}
		rates := make([]float64, len(fs))
		pairs := float64(p2pRounds) * p2pRepsPerRound * nt * ns
		for vi, ns := range total {
			if ns > 0 {
				rates[vi] = pairs / (float64(ns) / 1e9)
			}
		}
		return rates
	}
	gk := kernels.Gravity{G: 1, Softening: 0.01}
	gr := pairRates(
		func() { gk.P2P(xt, phi, acc, ys, ms) },
		func() { gk.P2PScalar(xt, phi, acc, ys, ms) },
	)
	res.GravPairRatePacked, res.GravPairRateScalar = gr[0], gr[1]
	if res.GravPairRateScalar > 0 {
		res.GravPackedSpeedup = res.GravPairRatePacked / res.GravPairRateScalar
	}
	sk := kernels.Stokeslet{Mu: 1, Eps: 0.05}
	sr := pairRates(
		func() { sk.P2P(xt, vel, ys, fs) },
		func() { sk.P2PScalar(xt, vel, ys, fs) },
	)
	res.StokesPairRatePacked, res.StokesPairRateScalar = sr[0], sr[1]
	if res.StokesPairRateScalar > 0 {
		res.StokesPackedSpeedup = res.StokesPairRatePacked / res.StokesPairRateScalar
	}

	// ---- Phase 3: end-to-end steps ----------------------------------------
	// Single-worker pool: the raw host numerics with the table on vs off,
	// alternating per step like the lists benchmark.
	eSteps := p.Steps
	if eSteps <= 0 || eSteps > 4 {
		eSteps = 3
	}
	res.EndToEndSteps = eSteps
	dt := p.Dt
	mkSolver := func(disable bool) *core.Solver {
		sys := distrib.Plummer(p.N, 1, 1, p.Seed)
		sv := core.NewSolver(sys, core.Config{
			P:               p.P,
			S:               s,
			Kernel:          kernels.Gravity{G: 1, Softening: 0.01},
			Pool:            sched.NewPool(1),
			DisableM2LTable: disable,
		})
		sv.Solve() // warm caches; the first solve builds lists (and table)
		return sv
	}
	tab, noTab := mkSolver(false), mkSolver(true)
	stepOnce := func(sv *core.Solver) int64 {
		tm := sched.StartTimer()
		sv.Solve()
		sim.KickDrift(sv.Sys, dt)
		sv.Refill()
		return tm.Elapsed().Nanoseconds()
	}
	for step := 0; step < eSteps; step++ {
		res.StepNsTable += stepOnce(tab)
		res.StepNsNoTable += stepOnce(noTab)
	}
	res.StepNsTable /= int64(eSteps)
	res.StepNsNoTable /= int64(eSteps)
	if res.StepNsTable > 0 {
		res.EndToEndSpeedup = float64(res.StepNsNoTable) / float64(res.StepNsTable)
	}
	return res
}
