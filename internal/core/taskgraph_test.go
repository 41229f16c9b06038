package core

import (
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/geom"
	"afmm/internal/particle"
	"afmm/internal/sched"
	"afmm/internal/telemetry"
)

// taskGraphPair builds two solvers over cloned systems: one on the
// dependency-driven task-graph path, one on the fork-join reference path
// (overlap left at its default so the graph is also checked against the
// overlapped schedule, the production default).
func taskGraphPair(t *testing.T, workers int, mut func(cfg *Config)) (tg, ref *Solver) {
	t.Helper()
	sysA := skewedSystem(1200, 7)
	sysB := sysA.Clone()
	cfgA := Config{P: 6, S: 24, Pool: sched.NewPool(workers), TaskGraph: true}
	cfgB := Config{P: 6, S: 24, Pool: sched.NewPool(workers)}
	mut(&cfgA)
	mut(&cfgB)
	return NewSolver(sysA, cfgA), NewSolver(sysB, cfgB)
}

// TestTaskGraphBitIdenticalGravity: the DAG schedule must not change a
// single ulp relative to the fork-join path, across CPU-only and device
// configurations, before and after the balancer's tree edits
// (Refill + EnforceS), on 2- and 4-worker pools.
func TestTaskGraphBitIdenticalGravity(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(cfg *Config)
	}{
		{"cpu-only", func(cfg *Config) {}},
		{"one-gpu", func(cfg *Config) { cfg.NumGPUs = 1 }},
		{"two-gpus", func(cfg *Config) { cfg.NumGPUs = 2 }},
		{"two-gpus-reserved", func(cfg *Config) { cfg.NumGPUs = 2; cfg.ReservedDrivers = 2 }},
		{"no-m2l-table", func(cfg *Config) { cfg.DisableM2LTable = true }},
	} {
		for _, workers := range []int{2, 4} {
			t.Run(tc.name, func(t *testing.T) {
				tg, ref := taskGraphPair(t, workers, tc.mut)
				tg.Solve()
				ref.Solve()
				assertBitIdentical(t, tg.Sys, ref.Sys)

				// Identity must survive the balancer's tree edits.
				move := func(sys *particle.System) {
					for i := range sys.Pos {
						d := sys.Pos[i].Scale(0.05)
						sys.Pos[i] = sys.Pos[i].Add(geom.Vec3{X: d.Y, Y: -d.X, Z: d.Z * 0.5})
					}
				}
				move(tg.Sys)
				move(ref.Sys)
				tg.Refill()
				ref.Refill()
				tg.EnforceS()
				ref.EnforceS()
				tg.Solve()
				ref.Solve()
				assertBitIdentical(t, tg.Sys, ref.Sys)
			})
		}
	}
}

// TestTaskGraphBitIdenticalUnderFaults: a fail-stop device loss recovered
// by the host fallback must stay bit-identical on the graph path too (the
// recovery rows run inside the near node, before the L2P join).
func TestTaskGraphBitIdenticalUnderFaults(t *testing.T) {
	sysA := testSystem(t, 2500)
	sysB := testSystem(t, 2500)
	cfgA, _ := faultCfg("gpu0:failstop@step1", t)
	cfgB, _ := faultCfg("gpu0:failstop@step1", t)
	cfgA.TaskGraph = true
	cfgA.Pool = sched.NewPool(4)
	cfgB.Pool = sched.NewPool(4)
	a := NewSolver(sysA, cfgA)
	b := NewSolver(sysB, cfgB)
	for step := 0; step < 3; step++ {
		if _, err := a.SolveChecked(); err != nil {
			t.Fatalf("taskgraph step %d: %v", step, err)
		}
		if _, err := b.SolveChecked(); err != nil {
			t.Fatalf("fork-join step %d: %v", step, err)
		}
		for i := range sysA.Phi {
			if sysA.Phi[i] != sysB.Phi[i] || sysA.Acc[i] != sysB.Acc[i] {
				t.Fatalf("step %d: divergence at body %d: phi %g vs %g",
					step, i, sysA.Phi[i], sysB.Phi[i])
			}
		}
	}
	if rep := a.Cluster.LastReport(); rep.DeadDevices != 1 {
		t.Fatalf("taskgraph run: want 1 dead device, got %d", rep.DeadDevices)
	}
}

// TestTaskGraphTelemetry: graph solves report the DAG shape and schedule
// quality, emit per-node spans on the task kinds, and the reservation is
// fully released afterwards.
func TestTaskGraphTelemetry(t *testing.T) {
	rec := telemetry.New(telemetry.Options{Keep: true})
	tg, _ := taskGraphPair(t, 4, func(cfg *Config) { cfg.NumGPUs = 1 })
	tg.SetRecorder(rec)
	st := tg.Solve()
	rec.EndStep()
	if !st.Host.Overlapped {
		t.Fatal("graph solve did not report Overlapped")
	}
	if st.Host.SerialWall < st.Host.Wall {
		t.Fatalf("serial-equivalent wall %v < wall %v", st.Host.SerialWall, st.Host.Wall)
	}
	if r := tg.Cfg.Pool.Reserved(); r != 0 {
		t.Fatalf("pool still has %d reserved workers after Solve", r)
	}
	steps := rec.Steps()
	if len(steps) == 0 {
		t.Fatal("no step records")
	}
	s0 := steps[0]
	if s0.TaskNodes <= 0 || s0.TaskEdges <= 0 || s0.TaskMaxReady < 1 {
		t.Fatalf("task graph stats not recorded: %+v", s0)
	}
	if s0.TaskCriticalNs <= 0 || s0.TaskMakespanNs < s0.TaskCriticalNs {
		t.Fatalf("critical path %d / makespan %d", s0.TaskCriticalNs, s0.TaskMakespanNs)
	}
	var up, down, l2p, near int
	for _, sp := range s0.Spans {
		switch sp.Kind {
		case telemetry.SpanTaskUp:
			up++
		case telemetry.SpanTaskDown:
			down++
		case telemetry.SpanTaskL2P:
			l2p++
		case telemetry.SpanTaskNear:
			near++
		}
	}
	if up == 0 || down == 0 || l2p == 0 || near == 0 {
		t.Fatalf("missing task spans: up=%d down=%d l2p=%d near=%d", up, down, l2p, near)
	}
}

// TestTaskGraphIneligibleFallsBack: the knob engages only where the graph
// can express the step — recursive sweeps, far-field-skipping solves and
// 1-worker pools keep their existing paths.
func TestTaskGraphIneligibleFallsBack(t *testing.T) {
	sys := distrib.Plummer(500, 1, 1, 11)
	rec := NewSolver(sys, Config{P: 4, S: 32, TaskGraph: true, SweepMode: SweepRecursive,
		Overlap: OverlapOff})
	if st := rec.Solve(); st.Host.Overlapped {
		t.Fatal("recursive sweep ran the graph path")
	}
	one := NewSolver(distrib.Plummer(500, 1, 1, 11), Config{
		P: 4, S: 32, TaskGraph: true, Pool: sched.NewPool(1),
	})
	if st := one.Solve(); st.Host.Overlapped {
		t.Fatal("1-worker pool ran the graph path")
	}
	skip := NewSolver(distrib.Plummer(500, 1, 1, 11), Config{
		P: 4, S: 32, TaskGraph: true, SkipFarField: true, Overlap: OverlapOff,
	})
	if st := skip.Solve(); st.Host.Overlapped {
		t.Fatal("far-field-skipping solve ran the graph path")
	}
}
