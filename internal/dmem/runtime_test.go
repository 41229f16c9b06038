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
// on a 1-worker driver pool under GOMAXPROCS=1, where every arrival and
// send node blocks on the one P. A deadlock fails the test on a timer,
// with every goroutine's stack, instead of hanging it.
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
	const (
		n     = 1200
		steps = 5
		dt    = 5e-4
	)
	sysD := distrib.Plummer(n, 1.0, 1.0, 11)
	sysS := distrib.Plummer(n, 1.0, 1.0, 11)

	events, err := fault.ParseNodeEvents("node2:failstop@step2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := execClusterConfig(4)
	cfg.NodeFaults = events
	d, err := NewSolver(sysD, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := d.RunWith(RunConfig{Steps: steps, Dt: dt})
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

	single := core.NewSolver(sysS, execCoreConfig())
	for step := 0; step < steps; step++ {
		single.Solve()
		for i := range sysS.Pos {
			sysS.Vel[i] = sysS.Vel[i].Add(sysS.Acc[i].Scale(dt))
			sysS.Pos[i] = sysS.Pos[i].Add(sysS.Vel[i].Scale(dt))
		}
		single.Refill()
	}
	for i := 0; i < n; i++ {
		if sysD.Pos[i] != sysS.Pos[i] {
			t.Fatalf("pos[%d]: distributed %v != single %v", i, sysD.Pos[i], sysS.Pos[i])
		}
		if sysD.Vel[i] != sysS.Vel[i] {
			t.Fatalf("vel[%d]: distributed %v != single %v", i, sysD.Vel[i], sysS.Vel[i])
		}
		if sysD.Phi[i] != sysS.Phi[i] {
			t.Fatalf("phi[%d]: distributed %v != single %v", i, sysD.Phi[i], sysS.Phi[i])
		}
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
	cl.det = newDetector(len(cl.Cfg.Nodes), cl.Cfg.link, cl.Cfg.LinkFaults, cl.Cfg.LinkSeed)
	cl.applyNodeFaults(1, &res)
	cl.det.stop()
	cl.det = nil
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

// TestNodeGraphSizes pins the size of the node graphs on the benchmark's
// dmem-grav-4n inputs: shares of the chunked step graph plus one node per
// flow, where the per-cell builder this replaced made 4,971 nodes and
// 214,909 edges. Run with -v to print the counts.
func TestNodeGraphSizes(t *testing.T) {
	sys := distrib.TwoClusters(16000, 0.3, 1, 8, 0, 42)
	cfg := execClusterConfig(4)
	cfg.Core = core.Config{P: 4, S: 64, Pool: sched.NewPool(2)}
	d, err := NewSolver(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := d.Solve()
	t.Logf("4 node graphs: %d nodes, %d edges, %d flows", rep.GraphNodes, rep.GraphEdges, rep.TotalMsgs)
	if rep.GraphNodes > 1500 || rep.GraphEdges > 10000 {
		t.Fatalf("node graphs hold %d nodes / %d edges, want <= 1500 / 10000", rep.GraphNodes, rep.GraphEdges)
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
// and the degradation path of an expansion flow waits for the send, so a
// caller that did not repartition must fail loudly before any goroutine
// starts.
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
