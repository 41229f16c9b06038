package dmem

import (
	"testing"

	"afmm/internal/core"
	"afmm/internal/distrib"
	"afmm/internal/fault"
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
		Core:    execCoreConfig(),
		Nodes:   HomogeneousNodes(nodes, NodeSpec{CPU: vcpu.Spec{Cores: 4}.Normalized()}),
		Execute: true,
	}
}

// TestExecuteBitIdenticalGravity runs the distributed runtime and an
// identically configured single-node solver on twin systems and demands
// exact (==) agreement of every accumulator.
func TestExecuteBitIdenticalGravity(t *testing.T) {
	const n = 1500
	sysD := distrib.Plummer(n, 1.0, 1.0, 7)
	sysS := distrib.Plummer(n, 1.0, 1.0, 7)

	single := core.NewSolver(sysS, execCoreConfig())
	single.Solve()

	d, err := NewSolver(sysD, execClusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	rep := d.Solve()
	if !rep.Executed {
		t.Fatal("expected an executed step")
	}
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
			t.Fatalf("phi[%d]: distributed %v != single %v", i, sysD.Phi[i], sysS.Phi[i])
		}
		if sysD.Acc[i] != sysS.Acc[i] {
			t.Fatalf("acc[%d]: distributed %v != single %v", i, sysD.Acc[i], sysS.Acc[i])
		}
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

// TestStokesClusterBitIdentical checks the distributed Stokes execution
// (with and without a failed node) against the single-node solver.
func TestStokesClusterBitIdentical(t *testing.T) {
	const n = 900
	svS := stokesTwin(n, 19)
	svD := stokesTwin(n, 19)

	svS.Solve()
	cl, err := NewStokesCluster(svD, 3, DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	es := cl.Solve()
	if es.TotalBytes == 0 {
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
	cl.Fail(1)
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
// for the current list epoch, every class covered — and still end ==;
// DisableM2LTable switches both to the reference form with the same bits.
func TestExecuteRunsSharedTable(t *testing.T) {
	const n = 1200
	var ref []float64
	for _, disable := range []bool{false, true} {
		cfg := execClusterConfig(3)
		cfg.Core.DisableM2LTable = disable
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
		if disable {
			if classes != 0 || m2l.Tab != nil {
				t.Fatal("DisableM2LTable still built a table")
			}
		} else {
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
		}
		for i := 0; i < n; i++ {
			if sysD.Phi[i] != sysS.Phi[i] || sysD.Acc[i] != sysS.Acc[i] {
				t.Fatalf("disable=%v body %d: distributed (%v, %v) != single (%v, %v)",
					disable, i, sysD.Phi[i], sysD.Acc[i], sysS.Phi[i], sysS.Acc[i])
			}
		}
		if ref == nil {
			ref = append(ref, sysS.Phi...)
		} else {
			for i := range ref {
				if ref[i] != sysS.Phi[i] {
					t.Fatalf("phi[%d]: table %v != reference form %v", i, ref[i], sysS.Phi[i])
				}
			}
		}
	}
}
