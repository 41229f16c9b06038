// Package experiments regenerates every table and figure of the paper's
// evaluation (§VIII-IX) on the simulated heterogeneous machine. Each
// experiment returns plain data rows; cmd/afmm-bench renders them and
// the repository-level benchmarks wrap them.
//
// Scaling note: the paper runs 10^6-10^7 bodies on real Xeon X5670 CPUs
// and Tesla C2050 GPUs. These experiments default to 10^4-10^5 bodies, so
// the simulated device throughput is derated by Params.GPUScale to keep
// the CPU/GPU balance structure — where the cost curves cross, which unit
// dominates on either side — in the same regime as the paper's. The
// *shape* of every result (orderings, approximate factors, crossovers) is
// the reproduction target, not absolute seconds.
package experiments

import (
	"math"

	"afmm/internal/balance"
	"afmm/internal/core"
	"afmm/internal/distrib"
	"afmm/internal/dmem"
	"afmm/internal/geom"
	"afmm/internal/kernels"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/sim"
	"afmm/internal/stokes"
	"afmm/internal/telemetry"
	"afmm/internal/vcpu"
	"afmm/internal/vgpu"
)

// Params sizes an experiment.
type Params struct {
	// N is the body count.
	N int
	// Seed drives every random choice (experiments are deterministic).
	Seed int64
	// P is the expansion order (timing experiments default to 4 — the
	// cost model, not the accuracy, is under study).
	P int
	// Cores is the virtual CPU core count (defaults to the paper's 10).
	Cores int
	// GPUs is the simulated device count.
	GPUs int
	// GPUScale derates device throughput for scaled-down N (see package
	// comment). Default 1/64.
	GPUScale float64
	// Steps and Dt drive the time-dependent experiments.
	Steps int
	Dt    float64
	// Rec, when non-nil, is attached to the dynamic experiments' headline
	// run (Fig8's strategy-3 simulation, Fig10's FGO-enabled simulation)
	// with whatever sinks the caller configured (JSONL trace, metrics
	// registry, flight recorder, sentinel), so afmm-bench's -metrics-addr
	// server watches the dynamic experiments live.
	Rec *telemetry.Recorder
}

func (p *Params) setDefaults() {
	if p.N <= 0 {
		p.N = 20000
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	if p.P <= 0 {
		p.P = 4
	}
	if p.Cores <= 0 {
		p.Cores = 10
	}
	if p.GPUs <= 0 {
		p.GPUs = 1
	}
	if p.GPUScale <= 0 {
		p.GPUScale = 1.0 / 64
	}
	if p.Steps <= 0 {
		p.Steps = 200
	}
	if p.Dt <= 0 {
		p.Dt = 1e-4
	}
}

// gpuSpec returns the derated device model.
func (p Params) gpuSpec() vgpu.Spec {
	return vgpu.ScaledSpec(p.GPUScale)
}

// cpuSpec returns the virtual CPU subsystem with the given core count.
func cpuSpec(cores int) vcpu.Spec {
	s := vcpu.DefaultSpec()
	s.Cores = cores
	return s
}

// SSweep is the default logarithmic S grid for the sweep figures.
func SSweep(maxS int) []int {
	grid := []int{4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048}
	var out []int
	for _, s := range grid {
		if s <= maxS {
			out = append(out, s)
		}
	}
	return out
}

// SweepPoint is one S sample of a cost sweep.
type SweepPoint struct {
	S       int
	CPU     float64
	GPU     float64
	Compute float64
	GPUEff  float64
	Leaves  int
	Depth   int
}

// drySolver builds a timing-only solver for the sweep experiments.
func drySolver(sys *particle.System, p Params, s int, mode octree.Mode, gpus int) *core.Solver {
	cfg := core.Config{
		P:             p.P,
		S:             s,
		Mode:          mode,
		NumGPUs:       gpus,
		GPUSpec:       p.gpuSpec(),
		CPU:           cpuSpec(p.Cores),
		Kernel:        kernels.Gravity{G: 1},
		SkipFarField:  true,
		SkipNearField: true,
	}
	return core.NewSolver(sys, cfg)
}

// sweep evaluates CPU/GPU cost over the S grid on one body distribution.
func sweep(p Params, mode octree.Mode) []SweepPoint {
	sys := distrib.Plummer(p.N, 1, 1, p.Seed)
	if mode == octree.Uniform {
		sys = distrib.UniformCube(p.N, 1, p.Seed)
	}
	var out []SweepPoint
	for _, s := range SSweep(p.N) {
		sol := drySolver(sys, p, s, mode, p.GPUs)
		st := sol.Solve()
		stats := sol.Tree.ComputeStats()
		out = append(out, SweepPoint{
			S:       s,
			CPU:     st.CPUTime,
			GPU:     st.GPUTime,
			Compute: st.Compute,
			GPUEff:  st.GPUEff,
			Leaves:  stats.VisibleLeaves,
			Depth:   stats.MaxDepth,
		})
	}
	return out
}

// Fig3 reproduces Figure 3: with the adaptive decomposition, CPU and GPU
// cost change gradually as functions of S.
func Fig3(p Params) []SweepPoint {
	p.setDefaults()
	return sweep(p, octree.Adaptive)
}

// Fig4 reproduces Figure 4: with a uniform decomposition, the cost curve
// splits into discrete regimes — entire octree levels appear or vanish at
// critical S values (the Uniform Gap).
func Fig4(p Params) []SweepPoint {
	p.setDefaults()
	return sweep(p, octree.Uniform)
}

// UniformRegimes summarizes a Fig4 sweep: the distinct tree depths
// encountered and the compute-time jump between consecutive S samples that
// cross a regime boundary.
type UniformRegimes struct {
	Depths    []int
	MaxJump   float64 // largest |compute(s_i+1)-compute(s_i)|/compute(s_i) at a depth change
	MaxSmooth float64 // largest relative step within a regime
}

// AnalyzeUniformGap extracts the regime structure from a Fig4 sweep.
func AnalyzeUniformGap(points []SweepPoint) UniformRegimes {
	var r UniformRegimes
	seen := map[int]bool{}
	for _, pt := range points {
		if !seen[pt.Depth] {
			seen[pt.Depth] = true
			r.Depths = append(r.Depths, pt.Depth)
		}
	}
	for i := 1; i < len(points); i++ {
		rel := math.Abs(points[i].Compute-points[i-1].Compute) /
			math.Max(points[i-1].Compute, 1e-300)
		if points[i].Depth != points[i-1].Depth {
			if rel > r.MaxJump {
				r.MaxJump = rel
			}
		} else if rel > r.MaxSmooth {
			r.MaxSmooth = rel
		}
	}
	return r
}

// ScalePoint is one core-count sample of the CPU scaling study.
type ScalePoint struct {
	Cores   int
	Time    float64
	Speedup float64
	TaskEff float64
}

// Fig6 reproduces Figure 6: speedup of the CPU-only AFMM as a function of
// core count on a Plummer distribution with a highly non-uniform tree,
// near-linear (slightly superlinear) to 16 cores and flattening beyond.
func Fig6(p Params) []ScalePoint {
	p.setDefaults()
	if p.N == 20000 {
		p.N = 50000
	}
	sys := distrib.Plummer(p.N, 1, 1, p.Seed)
	// A fixed S, as in the paper; choose a far-field-heavy value so the
	// task graph is deep and adaptive.
	tree := octree.Build(sys, octree.Config{S: 32})
	tree.BuildLists()
	base := vcpu.DefaultSpec()
	graph := vcpu.BuildFMMGraph(tree, base.Base, vcpu.FMMGraphOptions{IncludeP2P: true})
	var out []ScalePoint
	var t1 float64
	for _, cores := range []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32} {
		spec := base
		spec.Cores = cores
		res := spec.Simulate(graph)
		if cores == 1 {
			t1 = res.Makespan
		}
		out = append(out, ScalePoint{
			Cores:   cores,
			Time:    res.Makespan,
			Speedup: t1 / res.Makespan,
			TaskEff: res.Efficiency(cores),
		})
	}
	return out
}

// GPUPoint is one device-count sample of the GPU scaling study.
type GPUPoint struct {
	GPUs      int
	GPUTime   float64
	Speedup   float64
	Imbalance float64 // max/mean device kernel time
}

// Table1 reproduces Table I: near-field scaling over 1..4 GPUs for a fixed
// workload, at the S that minimizes total runtime for 10 cores + 1 GPU.
func Table1(p Params) []GPUPoint {
	p.setDefaults()
	if p.N == 20000 {
		p.N = 50000
	}
	sys := distrib.Plummer(p.N, 1, 1, p.Seed)
	// Find the best S for 10C + 1 GPU.
	bestS, bestC := 0, math.Inf(1)
	for _, s := range SSweep(p.N) {
		sol := drySolver(sys, p, s, octree.Adaptive, 1)
		st := sol.Solve()
		if st.Compute < bestC {
			bestC, bestS = st.Compute, s
		}
	}
	var out []GPUPoint
	var t1 float64
	for g := 1; g <= 4; g++ {
		sol := drySolver(sys, p, bestS, octree.Adaptive, g)
		st := sol.Solve()
		if g == 1 {
			t1 = st.GPUTime
		}
		var sum, max float64
		for _, d := range sol.Cluster.Devices {
			sum += d.KernelTime
			if d.KernelTime > max {
				max = d.KernelTime
			}
		}
		imb := 0.0
		if sum > 0 {
			imb = max / (sum / float64(len(sol.Cluster.Devices)))
		}
		out = append(out, GPUPoint{
			GPUs:      g,
			GPUTime:   st.GPUTime,
			Speedup:   t1 / st.GPUTime,
			Imbalance: imb,
		})
	}
	return out
}

// HeteroCurve is one machine configuration of Figure 7.
type HeteroCurve struct {
	Label       string
	Cores, GPUs int
	Points      []SweepPoint
	BestS       int
	BestTime    float64
	BestSpeedup float64 // vs. the optimal serial configuration
}

// Fig7GPUScale is the device derating used by Figure 7. It is larger than
// the sweep experiments' default because the figure's effects — a large
// heterogeneous speedup over serial, and a starved 4-core CPU wasting 4
// GPUs — require the paper's device:core throughput ratio (a C2050 is
// worth tens of CPU cores on all-pairs work).
const Fig7GPUScale = 1.0 / 6

// Fig7 reproduces Figure 7: heterogeneous speedup as a function of S for
// CPU/GPU combinations, against a single-core serial baseline at its own
// optimal S. Each S builds one tree; every machine configuration is then
// timed on that same tree (the virtual machine makes configurations
// independent of the numeric work).
func Fig7(p Params) (serial HeteroCurve, curves []HeteroCurve) {
	if p.GPUScale <= 0 {
		p.GPUScale = Fig7GPUScale
	}
	if p.N <= 0 {
		// The starved-CPU effects need the linear interaction regime.
		p.N = 50000
	}
	p.setDefaults()
	sys := distrib.Plummer(p.N, 1, 1, p.Seed)
	tree := octree.Build(sys, octree.Config{S: 64})
	base := vcpu.DefaultSpec()

	type combo struct {
		cores, gpus int
		lbl         string
	}
	combos := []combo{
		{1, 0, "1C serial"},
		{4, 1, "4C_1G"}, {10, 1, "10C_1G"},
		{4, 2, "4C_2G"}, {10, 2, "10C_2G"},
		{4, 4, "4C_4G"}, {10, 4, "10C_4G"},
	}
	results := make([]HeteroCurve, len(combos))
	for i, cb := range combos {
		results[i] = HeteroCurve{
			Label: cb.lbl, Cores: cb.cores, GPUs: cb.gpus,
			BestTime: math.Inf(1),
		}
	}

	for _, s := range SSweep(p.N) {
		tree.Rebuild(s)
		tree.BuildLists()
		farGraph := vcpu.BuildFMMGraph(tree, base.Base, vcpu.FMMGraphOptions{})
		allGraph := vcpu.BuildFMMGraph(tree, base.Base, vcpu.FMMGraphOptions{IncludeP2P: true})
		// Device kernel time depends only on the device count, not cores.
		gpuTime := map[int]float64{}
		for _, g := range []int{1, 2, 4} {
			cl := vgpu.NewCluster(g, p.gpuSpec())
			cl.Partition(tree)
			gpuTime[g] = cl.Execute(tree, nil)
		}
		for i, cb := range combos {
			spec := base
			spec.Cores = cb.cores
			var pt SweepPoint
			pt.S = s
			if cb.gpus == 0 {
				pt.CPU = spec.Simulate(allGraph).Makespan
				pt.Compute = pt.CPU
			} else {
				pt.CPU = spec.Simulate(farGraph).Makespan
				pt.GPU = gpuTime[cb.gpus]
				pt.Compute = math.Max(pt.CPU, pt.GPU)
			}
			results[i].Points = append(results[i].Points, pt)
			if pt.Compute < results[i].BestTime {
				results[i].BestTime, results[i].BestS = pt.Compute, s
			}
		}
	}
	serial = results[0]
	for _, c := range results[1:] {
		c.BestSpeedup = serial.BestTime / c.BestTime
		curves = append(curves, c)
	}
	return serial, curves
}

// StrategyRun labels a strategy's full simulation result.
type StrategyRun struct {
	Name     string
	Strategy balance.Strategy
	Result   sim.Result
}

// DynamicWorkload builds the §IX.A evolving system: a truncated Plummer
// sphere released cold (zero velocities). It violently collapses toward
// the center of mass, bounces, ejects a transient halo whose particles
// return, and virializes at a much more concentrated profile — churning
// the leaf occupancy of any fixed decomposition, like the paper's
// initially-compressed distribution.
func DynamicWorkload(p Params) *particle.System {
	sys := distrib.PlummerTruncated(p.N, 1, 1, 0.8, p.Seed)
	for i := range sys.Vel {
		sys.Vel[i] = geom.Vec3{}
	}
	return sys
}

func dynamicSolver(p Params) *core.Solver {
	cfg := core.Config{
		P:       p.P,
		S:       64,
		NumGPUs: p.GPUs,
		GPUSpec: p.gpuSpec(),
		CPU:     cpuSpec(p.Cores),
		Kernel:  kernels.Gravity{G: 1, Softening: 0.005},
	}
	return core.NewSolver(DynamicWorkload(p), cfg)
}

// Fig8 reproduces Figures 8/9 and the data behind Table II: the three
// balancing strategies on the dynamic workload. The per-step records carry
// both the per-step totals (Fig. 8) and the S values (Fig. 9).
func Fig8(p Params) []StrategyRun {
	if p.N <= 0 {
		p.N = 10000 // real forces are computed each step; keep tractable
	}
	if p.Steps <= 0 {
		p.Steps = 400 // enough to collapse, bounce and virialize
	}
	p.setDefaults()
	if p.GPUs == 1 {
		p.GPUs = 2
	}
	cfg := sim.Config{Dt: p.Dt, Steps: p.Steps}
	var runs []StrategyRun
	for _, sr := range []struct {
		name string
		st   balance.Strategy
	}{
		{"strategy1-static", balance.StrategyStatic},
		{"strategy2-enforce", balance.StrategyEnforce},
		{"strategy3-full", balance.StrategyFull},
	} {
		c := cfg
		c.Balance = balance.Config{Strategy: sr.st}
		if sr.st == balance.StrategyFull {
			c.Rec = p.Rec
		}
		res := sim.RunGravity(dynamicSolver(p), c)
		runs = append(runs, StrategyRun{Name: sr.name, Strategy: sr.st, Result: res})
	}
	return runs
}

// Table2Row is one strategy's summary (Table II).
type Table2Row struct {
	Strategy         string
	TotalCompute     float64
	TotalLB          float64
	LBPercent        float64
	RelCostPerStep   float64
	MeanTotalPerStep float64
}

// Table2 summarizes a Fig8 run set; relative cost is normalized to the
// full strategy (strategy 3), as in the paper.
func Table2(runs []StrategyRun) []Table2Row {
	var full float64
	for _, r := range runs {
		if r.Strategy == balance.StrategyFull {
			full = r.Result.MeanTotalPerStep()
		}
	}
	var rows []Table2Row
	for _, r := range runs {
		rows = append(rows, Table2Row{
			Strategy:         r.Name,
			TotalCompute:     r.Result.TotalCompute,
			TotalLB:          r.Result.TotalLB,
			LBPercent:        r.Result.LBPercent(),
			RelCostPerStep:   r.Result.MeanTotalPerStep() / full,
			MeanTotalPerStep: r.Result.MeanTotalPerStep(),
		})
	}
	return rows
}

// RatioPoint is one step of the Figure 10 comparison.
type RatioPoint struct {
	Step  int
	Ratio float64 // total(no FGO) / total(FGO)
}

// Fig10 reproduces Figure 10: per-step total time without vs. with
// FineGrainedOptimize on the Stokes problem over a uniform source
// distribution, where the fluid kernel's 4x M2L cost widens the uniform
// gap. It returns the per-step ratio series and the mean ratio after the
// initial search window.
func Fig10(p Params) ([]RatioPoint, float64) {
	if p.N <= 0 {
		p.N = 8000 // the Stokes solve runs four real far-field passes
	}
	if p.Steps <= 0 {
		p.Steps = 120
	}
	p.setDefaults()
	run := func(disableFGO bool) sim.Result {
		sys := distrib.UniformCube(p.N, 1, p.Seed)
		// Small random forces keep the workload quasi-static, as in the
		// paper's uniform test.
		rng := newRand(p.Seed + 1)
		for i := range sys.Aux {
			sys.Aux[i] = randUnit(rng).Scale(0.1)
		}
		cfg := stokes.Config{
			P:       p.P,
			S:       64,
			NumGPUs: p.GPUs,
			GPUSpec: p.gpuSpec(),
			CPU:     cpuSpec(p.Cores),
			Kernel:  kernels.Stokeslet{Mu: 1, Eps: 1e-3},
		}
		// Derate the device for the costlier Stokeslet pair, mirroring
		// stokes.Config defaults.
		cfg.GPUSpec.InteractionsPerSecPerSM *= float64(kernels.FlopsPerGravityInteraction) /
			float64(kernels.FlopsPerStokesletInteraction)
		sol := stokes.NewSolver(sys, cfg)
		simCfg := sim.Config{
			Dt:    p.Dt,
			Steps: p.Steps,
			Balance: balance.Config{
				Strategy:         balance.StrategyFull,
				DisableFineGrain: disableFGO,
			},
		}
		if !disableFGO {
			simCfg.Rec = p.Rec
		}
		return sim.RunStokes(sol, nil, simCfg)
	}
	with := run(false)
	without := run(true)
	var pts []RatioPoint
	for i := range with.Records {
		pts = append(pts, RatioPoint{
			Step:  i,
			Ratio: without.Records[i].Total / with.Records[i].Total,
		})
	}
	// Mean advantage after the initial search window (paper: first ~15
	// steps are the binary search).
	var sum float64
	var n int
	for _, pt := range pts {
		if pt.Step >= 15 {
			sum += pt.Ratio
			n++
		}
	}
	mean := 0.0
	if n > 0 {
		mean = sum / float64(n)
	}
	return pts, mean
}

// ClusterPoint is one node-count sample of the distributed weak-scaling
// study (an extension experiment, not from the paper).
type ClusterPoint struct {
	Nodes      int
	StepTime   float64
	MaxCompute float64
	CommTime   float64
	Bytes      int64
	Imbalance  float64
}

// Cluster runs the distributed-memory extension at fixed total N over
// 1..maxNodes nodes (strong scaling of one step).
func Cluster(p Params, maxNodes int) []ClusterPoint {
	p.setDefaults()
	if maxNodes <= 0 {
		maxNodes = 8
	}
	sys := distrib.Plummer(p.N, 1, 1, p.Seed)
	var out []ClusterPoint
	for nodes := 1; nodes <= maxNodes; nodes *= 2 {
		node := dmem.NodeSpec{
			CPU:     cpuSpec(p.Cores),
			GPUs:    p.GPUs,
			GPUSpec: p.gpuSpec(),
		}
		coreCfg := core.Config{
			P: p.P, S: 64, NumGPUs: p.GPUs, GPUSpec: p.gpuSpec(),
			CPU:          cpuSpec(p.Cores),
			SkipFarField: true, SkipNearField: true,
		}
		d, err := dmem.NewSolver(sys.Clone(), dmem.Config{
			Core:  coreCfg,
			Nodes: dmem.HomogeneousNodes(nodes, node),
		})
		if err != nil {
			break
		}
		rep := d.Solve()
		var maxC, comm float64
		for _, nt := range rep.PerNode {
			if nt.Compute > maxC {
				maxC = nt.Compute
			}
			if nt.CommTime > comm {
				comm = nt.CommTime
			}
		}
		out = append(out, ClusterPoint{
			Nodes: nodes, StepTime: rep.StepTime, MaxCompute: maxC,
			CommTime: comm, Bytes: rep.TotalBytes, Imbalance: rep.Imbalance,
		})
	}
	return out
}

// SpikeCount returns how many steps of a run exceeded the given per-step
// total (the paper reports 34 of 2000 steps of strategy 3 exceeding
// strategy 2's average).
func SpikeCount(r sim.Result, threshold float64) int {
	n := 0
	for _, rec := range r.Records {
		if rec.Total > threshold {
			n++
		}
	}
	return n
}
