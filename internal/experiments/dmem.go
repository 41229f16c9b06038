package experiments

import (
	"runtime"

	"afmm/internal/core"
	"afmm/internal/distrib"
	"afmm/internal/dmem"
	"afmm/internal/fault"
	"afmm/internal/vcpu"
)

// DmemScalePoint is one node count in a strong- or weak-scaling sweep of
// the simulated cluster (the alpha-beta-priced decomposition, not the
// goroutine runtime — scaling curves need node counts past the host's
// core count).
type DmemScalePoint struct {
	Nodes  int `json:"nodes"`
	NTotal int `json:"n_total"`
	// StepTime is the modeled makespan: slowest alive node's compute plus
	// unhidden communication, seconds.
	StepTime float64 `json:"step_time"`
	// Speedup is T(1 node)/T(this) for strong scaling; for weak scaling
	// it is T(1)/T(this) at proportional N (ideal = 1.0).
	Speedup   float64 `json:"speedup"`
	Imbalance float64 `json:"imbalance"`
	CommBytes int64   `json:"comm_bytes"`
	// HiddenFrac is the fraction of total communication time overlapped
	// with local near-field work (the halo-hiding schedule).
	HiddenFrac float64 `json:"hidden_frac"`
}

// DmemSkewResult compares static equal-count ranges against the
// cost-driven repartitioner on a skewed (two-cluster) distribution over
// a multi-step run.
type DmemSkewResult struct {
	N     int `json:"n"`
	Nodes int `json:"nodes"`
	Steps int `json:"steps"`
	// StaticTime / CostTime are total modeled run times (seconds) without
	// and with cost-driven repartitioning; Margin = StaticTime/CostTime.
	StaticTime      float64 `json:"static_time"`
	CostTime        float64 `json:"cost_time"`
	Margin          float64 `json:"margin"`
	Repartitions    int     `json:"repartitions"`
	StaticImbalance float64 `json:"static_imbalance"`
	CostImbalance   float64 `json:"cost_imbalance"`
}

// DmemExecCheck is the executed-runtime acceptance record: a real
// goroutine-per-node run (with an injected node loss) checked bit-exact
// against the single-node solver on a twin system.
type DmemExecCheck struct {
	N            int   `json:"n"`
	Nodes        int   `json:"nodes"`
	Steps        int   `json:"steps"`
	TotalBytes   int64 `json:"total_bytes"`
	TotalMsgs    int64 `json:"total_msgs"`
	NodeLosses   int   `json:"node_losses"`
	BitIdentical bool  `json:"bit_identical"`
}

// DmemBenchResult is the machine-readable payload of the "dmem"
// benchmark (written to BENCH_dmem.json by afmm-bench).
type DmemBenchResult struct {
	N         int              `json:"n"`
	P         int              `json:"p"`
	NPerNode  int              `json:"n_per_node"`
	HostCores int              `json:"host_cores"`
	Strong    []DmemScalePoint `json:"strong"`
	Weak      []DmemScalePoint `json:"weak"`
	Skew      DmemSkewResult   `json:"skew"`
	Exec      DmemExecCheck    `json:"exec"`
}

// dmemNodeCounts is the sweep grid for both scaling curves.
var dmemNodeCounts = []int{1, 4, 16, 64}

func dmemPricePoint(p Params, n, nodes int, seed int64) DmemScalePoint {
	sys := distrib.Plummer(n, 1, 1, seed)
	node := dmem.NodeSpec{
		CPU:     cpuSpec(p.Cores),
		GPUs:    p.GPUs,
		GPUSpec: p.gpuSpec(),
	}
	d, err := dmem.NewSolver(sys, dmem.Config{
		Core: core.Config{
			P: p.P, S: 64, NumGPUs: p.GPUs, GPUSpec: p.gpuSpec(),
			CPU:          cpuSpec(p.Cores),
			SkipFarField: true, SkipNearField: true,
		},
		Nodes: dmem.HomogeneousNodes(nodes, node),
	})
	if err != nil {
		return DmemScalePoint{Nodes: nodes, NTotal: n}
	}
	rep := d.Solve()
	var hidden, comm float64
	for _, nt := range rep.PerNode {
		hidden += nt.Hidden
		comm += nt.CommTime
	}
	pt := DmemScalePoint{
		Nodes: nodes, NTotal: n,
		StepTime:  rep.StepTime,
		Imbalance: rep.Imbalance,
		CommBytes: rep.TotalBytes,
	}
	if comm > 0 {
		pt.HiddenFrac = hidden / comm
	}
	return pt
}

// dmemSkew runs the static-vs-cost-driven comparison on a two-cluster
// distribution whose density contrast defeats equal-count ranges.
func dmemSkew(p Params, nodes, steps int) DmemSkewResult {
	mk := func() (*dmem.Solver, error) {
		sys := distrib.TwoClusters(p.N, 0.3, 1, 8, 0, 11)
		node := dmem.NodeSpec{
			CPU:     cpuSpec(p.Cores),
			GPUs:    p.GPUs,
			GPUSpec: p.gpuSpec(),
		}
		return dmem.NewSolver(sys, dmem.Config{
			Core: core.Config{
				P: p.P, S: 64, NumGPUs: p.GPUs, GPUSpec: p.gpuSpec(),
				CPU:          cpuSpec(p.Cores),
				SkipFarField: true, SkipNearField: true,
			},
			Nodes: dmem.HomogeneousNodes(nodes, node),
		})
	}
	res := DmemSkewResult{N: p.N, Nodes: nodes, Steps: steps}
	lastImb := func(r dmem.RunResult) float64 {
		if len(r.Steps) == 0 {
			return 0
		}
		return r.Steps[len(r.Steps)-1].Imbalance
	}
	if d, err := mk(); err == nil {
		r := d.RunWith(dmem.RunConfig{Steps: steps, Dt: p.Dt})
		res.StaticTime = r.TotalTime
		res.StaticImbalance = lastImb(r)
	}
	if d, err := mk(); err == nil {
		r := d.RunWith(dmem.RunConfig{
			Steps: steps, Dt: p.Dt,
			// A touch more eager than DefaultPolicy: the two-cluster
			// profile yields steady few-percent gains per repartition,
			// which the default 5% hysteresis floor would reject.
			Policy: dmem.RebalancePolicy{Threshold: 1.05, MinGain: 1.01, Cooldown: 2},
		})
		res.CostTime = r.TotalTime
		res.CostImbalance = lastImb(r)
		res.Repartitions = r.Rebalances
	}
	if res.CostTime > 0 {
		res.Margin = res.StaticTime / res.CostTime
	}
	return res
}

// dmemExecCheck runs the goroutine-node runtime with an injected
// fail-stop and verifies the trajectory is exactly (==) the single-node
// solver's on a twin system.
func dmemExecCheck(p Params) DmemExecCheck {
	n := p.N
	if n > 4000 {
		n = 4000
	}
	const (
		nodes = 4
		steps = 3
	)
	chk := DmemExecCheck{N: n, Nodes: nodes, Steps: steps}
	coreCfg := core.Config{P: p.P, S: 32}
	sysD := distrib.Plummer(n, 1, 1, p.Seed)
	sysS := distrib.Plummer(n, 1, 1, p.Seed)

	events, _ := fault.ParseNodeEvents("node2:failstop@step1")
	d, err := dmem.NewSolver(sysD, dmem.Config{
		Core:       coreCfg,
		Nodes:      dmem.HomogeneousNodes(nodes, dmem.NodeSpec{CPU: vcpu.Spec{Cores: 4}.Normalized()}),
		Execute:    true,
		NodeFaults: events,
	})
	if err != nil {
		return chk
	}
	r := d.RunWith(dmem.RunConfig{Steps: steps, Dt: p.Dt})
	chk.TotalBytes = r.TotalBytes
	chk.NodeLosses = r.NodeLosses
	for _, st := range r.Steps {
		chk.TotalMsgs += st.TotalMsgs
	}

	single := core.NewSolver(sysS, coreCfg)
	for step := 0; step < steps; step++ {
		single.Solve()
		for i := range sysS.Pos {
			sysS.Vel[i] = sysS.Vel[i].Add(sysS.Acc[i].Scale(p.Dt))
			sysS.Pos[i] = sysS.Pos[i].Add(sysS.Vel[i].Scale(p.Dt))
		}
		single.Refill()
	}
	chk.BitIdentical = true
	for i := 0; i < n; i++ {
		if sysD.Pos[i] != sysS.Pos[i] || sysD.Vel[i] != sysS.Vel[i] || sysD.Phi[i] != sysS.Phi[i] {
			chk.BitIdentical = false
			break
		}
	}
	return chk
}

// Dmem benchmarks the distributed-memory layer: strong and weak scaling
// of the priced decomposition over 1-64 virtual nodes, the cost-driven
// repartitioner against static equal-count ranges on a skewed
// distribution, and a bit-identity acceptance run of the executing
// goroutine-node runtime under an injected node loss.
func Dmem(p Params) DmemBenchResult {
	if p.N <= 0 {
		p.N = 24000
	}
	if p.Steps <= 0 {
		p.Steps = 10
	}
	p.setDefaults()
	perNode := p.N / 16
	if perNode < 500 {
		perNode = 500
	}
	res := DmemBenchResult{
		N: p.N, P: p.P, NPerNode: perNode,
		HostCores: runtime.NumCPU(),
	}
	for _, nodes := range dmemNodeCounts {
		res.Strong = append(res.Strong, dmemPricePoint(p, p.N, nodes, p.Seed))
		res.Weak = append(res.Weak, dmemPricePoint(p, perNode*nodes, nodes, p.Seed))
	}
	if t1 := res.Strong[0].StepTime; t1 > 0 {
		for i := range res.Strong {
			if res.Strong[i].StepTime > 0 {
				res.Strong[i].Speedup = t1 / res.Strong[i].StepTime
			}
		}
	}
	if t1 := res.Weak[0].StepTime; t1 > 0 {
		for i := range res.Weak {
			if res.Weak[i].StepTime > 0 {
				res.Weak[i].Speedup = t1 / res.Weak[i].StepTime
			}
		}
	}
	res.Skew = dmemSkew(p, 8, p.Steps)
	res.Exec = dmemExecCheck(p)
	return res
}
