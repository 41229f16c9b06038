package experiments

import (
	"runtime"
	"time"

	"afmm/internal/core"
	"afmm/internal/distrib"
	"afmm/internal/dmem"
	"afmm/internal/fault"
	"afmm/internal/particle"
	"afmm/internal/vcpu"
)

// NetFaultScenario is one link-fault schedule driven through the
// executing runtime and checked bit-exact against the fault-free
// single-node twin.
type NetFaultScenario struct {
	Name     string `json:"name"`
	Schedule string `json:"schedule"`
	// FramesSent includes retransmissions and chaos duplicates;
	// DeliveredRate is verified first deliveries over frames sent.
	FramesSent    int64   `json:"frames_sent"`
	FramesDropped int64   `json:"frames_dropped"`
	DeliveredRate float64 `json:"delivered_rate"`
	Retries       int64   `json:"retries"`
	// RetryOverhead is retransmitted frames per delivered flow.
	RetryOverhead  float64 `json:"retry_overhead"`
	CorruptRejects int64   `json:"corrupt_rejects"`
	Timeouts       int64   `json:"timeouts"`
	// Recoveries counts deadline degradations (re-requests + host-side
	// ghost re-packs) — nonzero only for budget-exceeding schedules.
	Recoveries int64 `json:"recoveries"`
	WallNs     int64 `json:"wall_ns"`
	// Slowdown is wall time over the clean scenario's wall time: the
	// price of the schedule, paid in throughput only.
	Slowdown     float64 `json:"slowdown"`
	BitIdentical bool    `json:"bit_identical"`
}

// NetFaultDetection compares the heartbeat failure detector against the
// priced path's oracle on the same injected fail-stop.
type NetFaultDetection struct {
	// OracleSec is the modeled oracle charge (100x network latency).
	OracleSec float64 `json:"oracle_sec"`
	// HeartbeatSec is the measured wall-clock heartbeat detection latency.
	HeartbeatSec float64 `json:"heartbeat_sec"`
	// WindowSec is the configured suspicion window
	// (HeartbeatInterval * SuspectAfter), the latency floor.
	WindowSec    float64 `json:"window_sec"`
	NodeLosses   int     `json:"node_losses"`
	BitIdentical bool    `json:"bit_identical"`
}

// NetFaultsResult is the machine-readable payload of the "netfaults"
// benchmark (written to BENCH_netfaults.json by afmm-bench).
type NetFaultsResult struct {
	N         int                `json:"n"`
	P         int                `json:"p"`
	Nodes     int                `json:"nodes"`
	Steps     int                `json:"steps"`
	HostCores int                `json:"host_cores"`
	Scenarios []NetFaultScenario `json:"scenarios"`
	Detection NetFaultDetection  `json:"detection"`
}

// netFaultLink is the benchmark's delivery-protocol tuning: fast
// retransmits so lossy scenarios converge quickly, generous deadlines so
// only the hard-partition scenario degrades.
func netFaultLink() dmem.LinkConfig {
	return dmem.LinkConfig{
		RetransmitTimeout: 200 * time.Microsecond,
		MaxRetries:        10,
		NearDeadline:      5 * time.Second,
		FarDeadline:       5 * time.Second,
	}
}

func netFaultsSingleTwin(n, steps int, dt float64, seed int64, coreCfg core.Config) *particle.System {
	sys := distrib.Plummer(n, 1, 1, seed)
	sv := core.NewSolver(sys, coreCfg)
	for step := 0; step < steps; step++ {
		sv.Solve()
		for i := range sys.Pos {
			sys.Vel[i] = sys.Vel[i].Add(sys.Acc[i].Scale(dt))
			sys.Pos[i] = sys.Pos[i].Add(sys.Vel[i].Scale(dt))
		}
		sv.Refill()
	}
	return sys
}

func sameTrajectory(a, b *particle.System) bool {
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] || a.Vel[i] != b.Vel[i] || a.Phi[i] != b.Phi[i] {
			return false
		}
	}
	return true
}

// NetFaults drives the executing runtime through escalating link-fault
// schedules — clean, lossy-within-budget, mixed chaos, hard partition —
// and an injected node loss under both detectors. Every scenario's
// trajectory must remain exactly the fault-free single-node trajectory;
// the schedules may only cost frames, retries, and wall clock.
func NetFaults(p Params) NetFaultsResult {
	p.setDefaults()
	n := p.N
	if n <= 0 || n > 3000 {
		n = 3000
	}
	const (
		nodes = 4
		steps = 3
	)
	dt := p.Dt
	coreCfg := core.Config{P: p.P, S: 32}
	res := NetFaultsResult{
		N: n, P: p.P, Nodes: nodes, Steps: steps,
		HostCores: runtime.NumCPU(),
	}
	want := netFaultsSingleTwin(n, steps, dt, p.Seed, coreCfg)

	runScenario := func(name, spec string, link dmem.LinkConfig) NetFaultScenario {
		sc := NetFaultScenario{Name: name, Schedule: spec}
		var sch *fault.LinkSchedule
		if spec != "" {
			var err error
			if sch, err = fault.ParseLinkEvents(spec); err != nil {
				return sc
			}
		}
		sysD := distrib.Plummer(n, 1, 1, p.Seed)
		d, err := dmem.NewSolver(sysD, dmem.Config{
			Core:       coreCfg,
			Nodes:      dmem.HomogeneousNodes(nodes, dmem.NodeSpec{CPU: vcpu.Spec{Cores: 4}.Normalized()}),
			Execute:    true,
			LinkFaults: sch,
			LinkSeed:   p.Seed,
			Link:       link,
		})
		if err != nil {
			return sc
		}
		t0 := time.Now()
		r := d.RunWith(dmem.RunConfig{Steps: steps, Dt: dt})
		sc.WallNs = time.Since(t0).Nanoseconds()
		sc.FramesSent = r.Net.FramesSent
		sc.FramesDropped = r.Net.FramesDropped
		sc.Retries = r.Net.Retries
		sc.CorruptRejects = r.Net.CorruptRejects
		sc.Timeouts = r.Net.Timeouts
		sc.Recoveries = r.Net.Rerequests + r.Net.DegradedGhostFlows
		if sc.FramesSent > 0 {
			sc.DeliveredRate = float64(r.Net.FramesDelivered) / float64(sc.FramesSent)
		}
		if r.Net.FramesDelivered > 0 {
			sc.RetryOverhead = float64(sc.Retries) / float64(r.Net.FramesDelivered)
		}
		sc.BitIdentical = sameTrajectory(sysD, want)
		return sc
	}

	res.Scenarios = append(res.Scenarios,
		runScenario("clean", "", netFaultLink()),
		runScenario("lossy",
			"link0-1:drop0.3@step0,link1-0:drop0.2@step0,link2-3:drop0.3@step0",
			netFaultLink()),
		runScenario("mixed",
			"link0-1:drop0.4@step0,link0-2:dup@step0,link2-0:corrupt0.4@step0,"+
				"link1-2:reorder@step0,link2-1:delay0.2ms@step0,link3-0:drop0.3@step1",
			netFaultLink()))
	hard := dmem.LinkConfig{
		RetransmitTimeout: 100 * time.Microsecond,
		MaxRetries:        2,
		NearDeadline:      20 * time.Millisecond,
		FarDeadline:       20 * time.Millisecond,
	}
	res.Scenarios = append(res.Scenarios,
		runScenario("hard-partition",
			"link0-1:drop1.0@step0,link0-2:drop1.0@step0", hard))
	if base := res.Scenarios[0].WallNs; base > 0 {
		for i := range res.Scenarios {
			res.Scenarios[i].Slowdown = float64(res.Scenarios[i].WallNs) / float64(base)
		}
	}

	// Detection: the same fail-stop, first charged by the oracle's modeled
	// timeout, then earned by the heartbeat detector's measured latency.
	hb := netFaultLink()
	hb.HeartbeatInterval = 500 * time.Microsecond
	hb.SuspectAfter = 10
	res.Detection.WindowSec = hb.HeartbeatInterval.Seconds() * float64(hb.SuspectAfter)
	runLoss := func(oracle bool) (dmem.RunResult, bool) {
		events, _ := fault.ParseNodeEvents("node2:failstop@step1")
		sysD := distrib.Plummer(n, 1, 1, p.Seed)
		d, err := dmem.NewSolver(sysD, dmem.Config{
			Core:         coreCfg,
			Nodes:        dmem.HomogeneousNodes(nodes, dmem.NodeSpec{CPU: vcpu.Spec{Cores: 4}.Normalized()}),
			Execute:      true,
			NodeFaults:   events,
			Link:         hb,
			OracleDetect: oracle,
		})
		if err != nil {
			return dmem.RunResult{}, false
		}
		r := d.RunWith(dmem.RunConfig{Steps: steps, Dt: dt})
		return r, sameTrajectory(sysD, want)
	}
	if r, ok := runLoss(true); r.NodeLosses == 1 {
		// The oracle charge is what is left after the repartition broadcast.
		res.Detection.OracleSec = r.RecoveryTime - float64(nodes)*dmem.DefaultNetwork().Latency
		res.Detection.BitIdentical = ok
	}
	if r, ok := runLoss(false); r.NodeLosses == 1 && len(r.DetectLatencies) == 1 {
		res.Detection.HeartbeatSec = r.DetectLatencies[0]
		res.Detection.NodeLosses = r.NodeLosses
		res.Detection.BitIdentical = res.Detection.BitIdentical && ok
	}
	return res
}
