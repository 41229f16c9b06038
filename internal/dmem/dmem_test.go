package dmem

import (
	"math"
	"strings"
	"testing"

	"afmm/internal/core"
	"afmm/internal/distrib"
	"afmm/internal/fault"
	"afmm/internal/sphharm"
	"afmm/internal/vcpu"
	"afmm/internal/vgpu"
)

func clusterConfig(nodes int) Config {
	node := NodeSpec{
		CPU:     vcpu.Spec{Cores: 10}.Normalized(),
		GPUs:    2,
		GPUSpec: vgpu.ScaledSpec(1.0 / 64),
	}
	coreCfg := core.Config{
		P: 4, S: 64, NumGPUs: 2, GPUSpec: vgpu.ScaledSpec(1.0 / 64),
		DryRun: true,
	}
	coreCfg.CPU.Cores = 10
	return Config{
		Core:  coreCfg,
		Nodes: HomogeneousNodes(nodes, node),
	}
}

func TestDistributedMatchesSingleNodeNumerics(t *testing.T) {
	sysA := distrib.Plummer(1200, 1, 1, 3)
	sysB := sysA.Clone()
	cfg := clusterConfig(4)
	cfg.Core.DryRun = false
	cfg.Core.P = 6
	d, err := NewSolver(sysA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Solve()

	single := core.NewSolver(sysB, cfg.Core)
	single.Solve()
	accA := sysA.AccInInputOrder()
	accB := sysB.AccInInputOrder()
	for i := range accA {
		if accA[i].Sub(accB[i]).Norm() > 1e-12*(1+accB[i].Norm()) {
			t.Fatalf("distributed numerics diverged at body %d", i)
		}
	}
}

func TestOwnershipPartitionsBodies(t *testing.T) {
	sys := distrib.Plummer(5000, 1, 1, 5)
	d, err := NewSolver(sys, clusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	rep := d.Solve()
	var owned int
	for _, nt := range rep.PerNode {
		owned += nt.Bodies
	}
	if owned != sys.Len() {
		t.Fatalf("nodes own %d bodies, want %d", owned, sys.Len())
	}
	cuts := d.Cuts()
	if cuts[0] != 0 || cuts[len(cuts)-1] != int32(sys.Len()) {
		t.Fatalf("cut endpoints wrong: %v", cuts)
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] < cuts[i-1] {
			t.Fatalf("cuts not monotone: %v", cuts)
		}
	}
}

func TestMoreNodesReduceComputeAddComm(t *testing.T) {
	sys := distrib.Plummer(20000, 1, 1, 7)
	var prevMaxCompute float64
	var prevBytes int64
	for i, nodes := range []int{1, 2, 4, 8} {
		d, err := NewSolver(sys.Clone(), clusterConfig(nodes))
		if err != nil {
			t.Fatal(err)
		}
		rep := d.Solve()
		var maxC float64
		for _, nt := range rep.PerNode {
			if nt.Compute > maxC {
				maxC = nt.Compute
			}
		}
		if nodes == 1 {
			if rep.TotalBytes != 0 {
				t.Fatalf("single node should not communicate: %d bytes", rep.TotalBytes)
			}
		} else {
			if rep.TotalBytes <= prevBytes {
				t.Fatalf("%d nodes: bytes %d did not grow from %d",
					nodes, rep.TotalBytes, prevBytes)
			}
			if maxC >= prevMaxCompute {
				t.Fatalf("%d nodes: max compute %v did not shrink from %v",
					nodes, maxC, prevMaxCompute)
			}
		}
		_ = i
		prevMaxCompute = maxC
		prevBytes = rep.TotalBytes
	}
}

func TestCommVolumeBounded(t *testing.T) {
	// Ghost/multipole traffic must be far below shipping the whole
	// system to every node (the point of the locally essential tree).
	sys := distrib.Plummer(20000, 1, 1, 9)
	d, err := NewSolver(sys, clusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	rep := d.Solve()
	naive := int64(4) * int64(sys.Len()) * int64(d.Cfg.Net.BytesPerBody)
	if rep.TotalBytes >= naive {
		t.Fatalf("comm %d bytes not below naive broadcast %d", rep.TotalBytes, naive)
	}
	if rep.TotalBytes == 0 {
		t.Fatal("no communication recorded on 4 nodes")
	}

	// The exchanged volume holds at least the ghost bodies the step's
	// near-field rows read from other nodes, each remote source leaf once
	// per receiver: counted here from the schedule and the cuts alone.
	tree := d.Inner.Tree
	cuts := d.Cuts()
	ownerOf := func(ni int32) int {
		k := 0
		for k+1 < len(cuts)-1 && cuts[k+1] <= tree.Nodes[ni].Start {
			k++
		}
		return k
	}
	sch := tree.NearField()
	shipped := map[[2]int32]bool{}
	var ghostBytes int64
	for r, li := range sch.Leaves {
		k := ownerOf(li)
		for _, si := range sch.Row(r) {
			key := [2]int32{int32(k), si}
			if ownerOf(si) != k && !shipped[key] {
				shipped[key] = true
				ghostBytes += int64(tree.Nodes[si].Count()) * int64(d.Cfg.Net.BytesPerBody)
			}
		}
	}
	if rep.TotalBytes < ghostBytes {
		t.Fatalf("comm %d bytes below the %d ghost bytes the near field needs", rep.TotalBytes, ghostBytes)
	}
}

// TestPlanShipsEachCellOnce: on TestCommVolumeBounded's input no receiver
// gets a leaf both as ghost bodies and as a multipole — it forms that
// multipole from the bodies — and the executed step moves exactly the
// bytes of the plan, summed here per kind.
func TestPlanShipsEachCellOnce(t *testing.T) {
	sys := distrib.Plummer(20000, 1, 1, 9)
	d, err := NewSolver(sys, clusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	rep := d.Solve()
	tree := d.Inner.Tree
	pl := buildPlan(tree, tree.NearField(), d.Cuts())
	expBytes := int64(d.Inner.Field.Width()) * int64(sphharm.PackedLen(d.Inner.Cfg.P)) * 16
	var planned int64
	twice, formed := 0, 0
	for k, fs := range pl.in {
		ghost := map[int32]bool{}
		for _, f := range fs {
			if f.id.kind != flowGhost {
				continue
			}
			for _, ci := range f.cells {
				ghost[ci] = true
				planned += int64(tree.Nodes[ci].Count()) * int64(d.Cfg.Net.BytesPerBody)
			}
			for _, ci := range f.form {
				if !ghost[ci] {
					t.Fatalf("node %d forms the multipole of cell %d without its bodies", k, ci)
				}
				formed++
			}
		}
		for _, f := range fs {
			if f.id.kind == flowGhost {
				continue
			}
			planned += int64(len(f.cells)) * expBytes
			for _, ci := range f.cells {
				if f.id.kind == flowMpole && ghost[ci] {
					twice++
				}
			}
		}
	}
	if twice > 0 {
		t.Fatalf("%d (receiver, cell) pairs ship both bodies and a multipole", twice)
	}
	if formed == 0 {
		t.Fatal("no receiver forms a multipole from ghost bodies: the rule is not exercised")
	}
	if rep.TotalBytes != planned {
		t.Fatalf("step moved %d bytes, the plan %d", rep.TotalBytes, planned)
	}
	// Multipoles shipped beside the ghosts would move 2,644,976 B.
	if rep.TotalBytes > 1_940_000 {
		t.Fatalf("step moved %d bytes, want <= 1,940,000", rep.TotalBytes)
	}
	t.Logf("%d bytes in %d flows, %d multipoles formed from ghost bodies", rep.TotalBytes, rep.TotalMsgs, formed)
}

func TestRebalanceImprovesSkewedPartition(t *testing.T) {
	// A clustered distribution with equal-count cuts loads the node
	// owning the dense core with most of the near-field work; cost-based
	// cuts must improve the bound.
	sys := distrib.TwoClusters(12000, 0.3, 1, 8, 0, 11)
	d, err := NewSolver(sys, clusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	before := d.Solve()
	gain := d.Rebalance()
	after := d.Solve()
	if gain < 0.99 {
		t.Fatalf("rebalance predicted regression: gain %v", gain)
	}
	if after.Imbalance > before.Imbalance*1.05 {
		t.Fatalf("imbalance worsened: %v -> %v", before.Imbalance, after.Imbalance)
	}
}

func TestHeterogeneousClusterNodes(t *testing.T) {
	// A cluster whose first node has no GPUs: that node's near field
	// lands on its CPU and it should be the step bottleneck.
	sys := distrib.Plummer(10000, 1, 1, 13)
	cfg := clusterConfig(3)
	// Full-speed devices on the GPU nodes so the contrast with the
	// GPU-less node is unambiguous.
	for k := range cfg.Nodes {
		cfg.Nodes[k].GPUSpec = vgpu.DefaultSpec()
	}
	cfg.Nodes[0].GPUs = 0
	d, err := NewSolver(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := d.Solve()
	slowest := 0
	for k, nt := range rep.PerNode {
		if nt.Compute > rep.PerNode[slowest].Compute {
			slowest = k
		}
	}
	if slowest != 0 {
		t.Fatalf("GPU-less node %d not the bottleneck (slowest=%d)", 0, slowest)
	}
}

func TestNoNodesRejected(t *testing.T) {
	sys := distrib.Plummer(100, 1, 1, 1)
	if _, err := NewSolver(sys, Config{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

// TestOrderAboveMaxRejected: an expansion order the harmonics cannot
// evaluate is a configuration error, not a panic inside the solver.
func TestOrderAboveMaxRejected(t *testing.T) {
	cfg := clusterConfig(2)
	cfg.Core.P = sphharm.MaxOrder + 1
	if _, err := NewSolver(distrib.Plummer(100, 1, 1, 1), cfg); err == nil {
		t.Fatalf("order %d accepted", cfg.Core.P)
	}
}

func TestRunRebalancesWhenSkewed(t *testing.T) {
	// Colliding clusters drive the partition out of balance over time;
	// the driver must trigger rebalances and keep the run sane.
	sys := distrib.TwoClusters(4000, 0.3, 1, 4, 4, 31)
	cfg := clusterConfig(4)
	cfg.Core.DryRun = false
	cfg.Core.P = 2
	cfg.Core.Kernel.G = 1
	cfg.Core.Kernel.Softening = 0.02
	d, err := NewSolver(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := d.RunWith(RunConfig{Steps: 30, Dt: 5e-4, Policy: RebalancePolicy{Threshold: 1.05}})
	if len(res.Steps) != 30 {
		t.Fatalf("%d step reports", len(res.Steps))
	}
	if res.TotalTime <= 0 || res.TotalBytes <= 0 {
		t.Fatalf("degenerate totals: %+v", res)
	}
	if res.Rebalances == 0 {
		t.Fatal("skewed collision never triggered a rebalance")
	}
	if err := d.Inner.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryTimeSumsPerEventCharges: two nodes failing on one step each
// book their own detection + broadcast charge, once — RecoveryTime is what
// the step times were charged, not a running total added twice.
func TestRecoveryTimeSumsPerEventCharges(t *testing.T) {
	events, err := fault.ParseNodeEvents("node1:failstop@step1,node2:failstop@step1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := execClusterConfig(4)
	cfg.NodeFaults = events
	d, err := NewSolver(distrib.Plummer(2000, 1, 1, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := d.RunWith(RunConfig{Steps: 3, Dt: 1e-4})
	if res.NodeLosses != 2 || len(res.DetectLatencies) != 2 {
		t.Fatalf("node losses = %d with %d detection latencies, want 2 and 2",
			res.NodeLosses, len(res.DetectLatencies))
	}
	// What a step was charged on top of its slowest node.
	var charged float64
	for _, rep := range res.Steps {
		var slowest float64
		for _, nt := range rep.PerNode {
			slowest = math.Max(slowest, nt.Compute+nt.CommTime-nt.Hidden)
		}
		charged += rep.StepTime - slowest
	}
	// Per event: the heartbeat detector's 25 ms on clean links plus a
	// repartition broadcast to every node.
	want := 2 * (0.025 + 4*d.Cfg.Net.Latency)
	if math.Abs(res.RecoveryTime-want) > 1e-9*want || math.Abs(charged-want) > 1e-9*want {
		t.Fatalf("RecoveryTime = %v, step times were charged %v, want both %v", res.RecoveryTime, charged, want)
	}
}

// TestInvalidClusterConfigRejected: a fault schedule NewSolver cannot run
// is a configuration error, not a failure inside the run.
func TestInvalidClusterConfigRejected(t *testing.T) {
	nodeEvents := func(spec string) []fault.NodeEvent {
		ev, err := fault.ParseNodeEvents(spec)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	cases := []struct {
		name, want string // want: a substring of the error
		mod        func(*Config)
	}{
		{"node fault on an unknown node", "unknown node 4", func(c *Config) {
			c.NodeFaults = nodeEvents("node4:failstop@step1")
		}},
		{"link fault on an unknown link", "unknown link 0-4", func(c *Config) {
			c.LinkFaults = mustCluster(t, "link0-4:drop0.3@step0")
		}},
	}
	for _, tc := range cases {
		cfg := execClusterConfig(4)
		tc.mod(&cfg)
		_, err := NewSolver(distrib.Plummer(100, 1, 1, 1), cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
