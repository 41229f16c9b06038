package dmem

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"afmm/internal/core"
	"afmm/internal/distrib"
	"afmm/internal/fault"
	"afmm/internal/sched"
	"afmm/internal/stokes"
	"afmm/internal/vcpu"
)

// execCoreConfig keeps both sides of a cross-mode comparison on the one
// code path the engines replicate: plain float64 near field, the shared
// M2L translation-class table, CPU execution.
func execCoreConfig() core.Config {
	return core.Config{P: 5, S: 32}
}

func execClusterConfig(nodes int) Config {
	return Config{
		Core:  execCoreConfig(),
		Nodes: HomogeneousNodes(nodes, NodeSpec{CPU: vcpu.Spec{Cores: 4}.Normalized()}),
	}
}

// TestExecuteBitIdenticalGravity runs the distributed runtime and an
// identically configured single-node solver on twin systems and demands
// exact (==) agreement of every accumulator — for driver pools of 1, 2 and
// 4 workers: the pool's geometry cuts the node graphs' chunks, and bits
// must not depend on where the cuts fall.
func TestExecuteBitIdenticalGravity(t *testing.T) {
	const n = 1500
	sysS := distrib.Plummer(n, 1.0, 1.0, 7)
	single := core.NewSolver(sysS, execCoreConfig())
	single.Solve()

	for _, workers := range []int{1, 2, 4} {
		sysD := distrib.Plummer(n, 1.0, 1.0, 7)
		cfg := execClusterConfig(4)
		cfg.Core.Pool = sched.NewPool(workers)
		d, err := NewSolver(sysD, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep := d.Solve()
		if rep.TotalBytes == 0 || rep.TotalMsgs == 0 {
			t.Fatalf("expected cross-node traffic, got bytes=%d msgs=%d",
				rep.TotalBytes, rep.TotalMsgs)
		}
		// The twins agree with accepted pairs summed directly: their remote
		// sources cross the wire as ghost bodies, not as multipoles.
		if sch := d.Inner.Tree.NearField(); sch.DirectPairs == 0 || rep.GhostLeaves == 0 {
			t.Fatalf("%d direct pairs, %d ghost leaves: the predicate is not exercised",
				sch.DirectPairs, rep.GhostLeaves)
		}
		for i := 0; i < n; i++ {
			if sysD.Phi[i] != sysS.Phi[i] {
				t.Fatalf("%d workers: phi[%d]: distributed %v != single %v", workers, i, sysD.Phi[i], sysS.Phi[i])
			}
			if sysD.Acc[i] != sysS.Acc[i] {
				t.Fatalf("%d workers: acc[%d]: distributed %v != single %v", workers, i, sysD.Acc[i], sysS.Acc[i])
			}
		}
	}
}

// TestExecuteStressOneProc is a cheap stress for the executed runtime:
// 40 steps of a small 4-node cluster, repartitioning whenever it skews,
// on a 1-worker solver pool under GOMAXPROCS=1. No node blocks; the test
// guards that the one step graph joining the nodes' shares still drains,
// help-first, on one P: every send must release its unpack and every
// unpack its readers. A lost release fails the test on a timer, with
// every goroutine's stack, instead of hanging it.
func TestExecuteStressOneProc(t *testing.T) {
	const steps = 40
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := execClusterConfig(4)
	cfg.Core.Pool = sched.NewPool(1)
	d, err := NewSolver(distrib.TwoClusters(400, 0.3, 1, 4, 4, 17), cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan RunResult, 1)
	go func() { done <- d.RunWith(RunConfig{Steps: steps, Dt: 5e-4, Policy: RebalancePolicy{Threshold: 1.05}}) }()
	select {
	case res := <-done:
		if len(res.Steps) != steps || res.TotalBytes == 0 || res.Rebalances == 0 {
			t.Fatalf("%d step reports, %d bytes exchanged, %d repartitions",
				len(res.Steps), res.TotalBytes, res.Rebalances)
		}
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("%d executed steps did not finish in 30s: deadlock?\n%s", steps, buf[:runtime.Stack(buf, true)])
	}
}

// TestExecuteBitIdenticalUnderNodeLoss drives a multi-step run with an
// injected fail-stop and checks the trajectory stays exactly the
// single-node trajectory: the survivors execute every lost range.
func TestExecuteBitIdenticalUnderNodeLoss(t *testing.T) {
	events, err := fault.ParseNodeEvents("node2:failstop@step2")
	if err != nil {
		t.Fatal(err)
	}
	d, res := twinRun(t, singleTwin(1200, 5, 11), 11, 5, 4, func(cfg *Config) { cfg.NodeFaults = events })
	if res.NodeLosses != 1 {
		t.Fatalf("expected 1 node loss, got %d", res.NodeLosses)
	}
	if res.RecoveryTime <= 0 {
		t.Fatal("node loss must charge recovery time")
	}
	if got := d.Alive(); got[2] {
		t.Fatal("node 2 should be dead")
	}
	if d.CapacityEpoch() != 1 {
		t.Fatalf("capacity epoch = %d, want 1", d.CapacityEpoch())
	}

}

func stokesTwin(n int, seed int64) *stokes.Solver {
	sys := distrib.Plummer(n, 1.0, 1.0, seed)
	// Deterministic driving forces derived from the (identically
	// permuted) positions.
	for i := range sys.Aux {
		p := sys.Pos[i]
		sys.Aux[i].X = 0.3 * p.Y
		sys.Aux[i].Y = -0.2 * p.Z
		sys.Aux[i].Z = 0.1 * p.X
	}
	sv := stokes.NewSolver(sys, stokes.Config{P: 4, S: 32})
	// The Stokes solver's own threshold is 0; set one so the twins also
	// agree with accepted pairs summed directly (ghost forces on the wire).
	sv.Tree.SetDirectK(100)
	return sv
}

// stokesCluster distributes a Stokes solver over three executed nodes
// through the one front-end: only the field the engines copy differs from
// gravity (four harmonic passes, force charges, velocity combine).
func stokesCluster(sv *stokes.Solver, mod func(*Config)) *Solver {
	cfg := execClusterConfig(3)
	if mod != nil {
		mod(&cfg)
	}
	return newOver(sv.Solver, cfg)
}

// TestStokesClusterBitIdentical checks the distributed Stokes execution
// (with and without a failed node) against the single-node solver.
func TestStokesClusterBitIdentical(t *testing.T) {
	const n = 900
	svS := stokesTwin(n, 19)
	svD := stokesTwin(n, 19)

	svS.Solve()
	events, err := fault.ParseNodeEvents("node1:failstop@step1")
	if err != nil {
		t.Fatal(err)
	}
	cl := stokesCluster(svD, func(cfg *Config) { cfg.NodeFaults = events })
	rep := cl.Solve()
	if rep.TotalBytes == 0 {
		t.Fatal("expected cross-node traffic")
	}
	if svD.Tree.NearField().DirectPairs == 0 {
		t.Fatal("no accepted pair summed directly: the predicate is not exercised")
	}
	for i := 0; i < n; i++ {
		if svD.Sys.Acc[i] != svS.Sys.Acc[i] {
			t.Fatalf("vel[%d]: distributed %v != single %v", i, svD.Sys.Acc[i], svS.Sys.Acc[i])
		}
	}

	// Fail a node and solve again: the survivors must reproduce the
	// single-node result exactly.
	var res RunResult
	cl.applyNodeFaults(1, &res)
	if res.NodeLosses != 1 || cl.Alive()[1] {
		t.Fatalf("node 1 not lost: %d losses, alive %v", res.NodeLosses, cl.Alive())
	}
	svS.Solve()
	cl.Solve()
	for i := 0; i < n; i++ {
		if svD.Sys.Acc[i] != svS.Sys.Acc[i] {
			t.Fatalf("post-loss vel[%d]: distributed %v != single %v", i, svD.Sys.Acc[i], svS.Sys.Acc[i])
		}
	}
}

// TestExecuteRunsSharedTable: the node engines and the single-node twin
// both translate through the class table — one table per runtime, built
// for the current list epoch, every class covered — and still end ==.
func TestExecuteRunsSharedTable(t *testing.T) {
	const n = 1200
	cfg := execClusterConfig(3)
	sysD := distrib.TwoClusters(n, 0.3, 1, 8, 0, 13)
	sysS := distrib.TwoClusters(n, 0.3, 1, 8, 0, 13)
	single := core.NewSolver(sysS, cfg.Core)
	single.Solve()
	d, err := NewSolver(sysD, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Solve()

	classes, pairs, _, _ := single.M2LTableStats()
	dClasses, dPairs, _, _ := d.Inner.M2LTableStats()
	m2l := d.Inner.Field.(*core.GravityField).M2L
	if classes == 0 || dClasses != classes || dPairs != pairs {
		t.Fatalf("engine table has %d classes / %d pairs, twin %d / %d",
			dClasses, dPairs, classes, pairs)
	}
	for c := 0; c < dClasses; c++ {
		if !m2l.Tab.HasRot(c) {
			t.Fatalf("class %d not covered by the engines' table", c)
		}
	}
	for _, e := range d.rt.eng {
		if e.Field.(*core.GravityField).M2L != m2l {
			t.Fatal("a node engine does not share the solver's table")
		}
	}
	for i := 0; i < n; i++ {
		if sysD.Phi[i] != sysS.Phi[i] || sysD.Acc[i] != sysS.Acc[i] {
			t.Fatalf("body %d: distributed (%v, %v) != single (%v, %v)",
				i, sysD.Phi[i], sysD.Acc[i], sysS.Phi[i], sysS.Acc[i])
		}
	}
}

// benchInput is a solver over the benchmark's dmem-grav-4n inputs: two
// clusters of 16,000 bodies on 4 nodes, p = 4, S = 64, a 2-worker pool.
func benchInput(t *testing.T) *Solver {
	sys := distrib.TwoClusters(16000, 0.3, 1, 8, 0, 42)
	cfg := execClusterConfig(4)
	cfg.Core = core.Config{P: 4, S: 64, Pool: sched.NewPool(2)}
	d, err := NewSolver(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestNodeGraphSizes pins the size of the step graph on the benchmark's
// dmem-grav-4n inputs: the 4 nodes' shares of the chunked step graph, one
// unpack and one send node per flow and one edge joining them, where the
// per-cell builder this replaced made 4,971 nodes and 214,909 edges. Run
// with -v to print the counts.
func TestNodeGraphSizes(t *testing.T) {
	rep := benchInput(t).Solve()
	t.Logf("one step graph over 4 nodes: %d nodes, %d edges, %d flows", rep.GraphNodes, rep.GraphEdges, rep.TotalMsgs)
	if rep.GraphNodes > 1500 || rep.GraphEdges > 10000 {
		t.Fatalf("step graph holds %d nodes / %d edges, want <= 1500 / 10000", rep.GraphNodes, rep.GraphEdges)
	}
}

// TestClusterSolveAllocationCeiling is the allocs/step gate of the
// executed runtime on the same inputs: once slabs, lists, the class table
// and the engines are warm, a Solve allocates only per-step structures
// (the plan, the payloads, the step graph and its closures, the model's
// node graphs). It measured 13,424–13,469 with one step graph on the
// solver's pool (14,311–14,331 when every node ran a graph of its own on a
// private pool with a goroutine per arrival), and 8,265–8,306 once the
// model's replay stopped boxing every task completion through
// container/heap: the ceiling sits 3.2 % above that.
func TestClusterSolveAllocationCeiling(t *testing.T) {
	const ceiling = 8570
	d := benchInput(t)
	d.Solve()
	d.Solve()
	if got := testing.AllocsPerRun(5, func() { d.Solve() }); got > ceiling {
		t.Errorf("warmed Solve makes %.0f allocations, ceiling %d", got, ceiling)
	} else {
		t.Logf("%.0f allocations per warmed Solve", got)
	}
}

// TestPlanFlowsMirrorAndSorted: every flow some node sends is a flow its
// receiver expects, with the same cells, and both lists come in the one
// order every run builds its graphs in.
func TestPlanFlowsMirrorAndSorted(t *testing.T) {
	sys := distrib.TwoClusters(3000, 0.3, 1, 8, 0, 5)
	inner := core.NewSolver(sys, execCoreConfig())
	tr := inner.Tree
	tr.BuildLists()
	cuts := []int32{0, tr.SnapToLeafEnd(700), tr.SnapToLeafEnd(700), tr.SnapToLeafEnd(2100), 3000}
	pl := buildPlan(tr, tr.NearField(), cuts)

	kinds := map[flowKind]int{}
	for k := range pl.in {
		for _, side := range []struct {
			flows []flow
			peer  func(flowID) int
		}{
			{pl.in[k], func(f flowID) int { return f.from }},
			{pl.out[k], func(f flowID) int { return f.to }},
		} {
			for i, f := range side.flows {
				if !slices.IsSorted(f.cells) || len(f.cells) == 0 {
					t.Fatalf("node %d: flow %+v carries cells %v", k, f.id, f.cells)
				}
				if i == 0 {
					continue
				}
				a, b := side.flows[i-1].id, f.id
				if c := cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(side.peer(a), side.peer(b)), cmp.Compare(a.level, b.level)); c >= 0 {
					t.Fatalf("node %d: flow %+v listed before %+v", k, a, b)
				}
			}
		}
		for _, f := range pl.in[k] {
			kinds[f.id.kind]++
			if f.id.to != k || f.id.from == k {
				t.Fatalf("in[%d] holds flow %+v", k, f.id)
			}
			i := slices.IndexFunc(pl.out[f.id.from], func(o flow) bool { return o.id == f.id })
			if i < 0 || !slices.Equal(pl.out[f.id.from][i].cells, f.cells) {
				t.Fatalf("in[%d] flow %+v is not mirrored in out[%d]", k, f.id, f.id.from)
			}
		}
	}
	var nIn, nOut int
	for k := range pl.in {
		nIn, nOut = nIn+len(pl.in[k]), nOut+len(pl.out[k])
	}
	if nIn != nOut || nIn != len(pl.flowIDs()) {
		t.Fatalf("%d incoming flows, %d outgoing, %d ids", nIn, nOut, len(pl.flowIDs()))
	}
	if kinds[flowMpole] == 0 || kinds[flowLocal] == 0 || kinds[flowGhost] == 0 {
		t.Fatalf("flows by kind %v: a kind is not exercised", kinds)
	}
	if len(pl.in[1])+len(pl.out[1]) != 0 {
		t.Fatal("the node that owns nothing has flows")
	}
}

// TestStepRejectsDeadNodeWithBodies: a dead node's flows are never sent,
// and an unpack reads what its send settled, so a caller that did not
// repartition must fail loudly before the step graph is built.
func TestStepRejectsDeadNodeWithBodies(t *testing.T) {
	d, err := NewSolver(distrib.Plummer(600, 1, 1, 3), execClusterConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	d.alive[1] = false
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "dead node 1") {
			t.Fatalf("recovered %v, want a panic naming dead node 1", r)
		}
	}()
	d.Solve()
}
