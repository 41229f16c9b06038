package balance

import (
	"testing"

	"afmm/internal/core"
	"afmm/internal/distrib"
)

func newHeteroSolver(n int, seed int64) *core.Solver {
	sys := distrib.Plummer(n, 1, 1, seed)
	cfg := core.Config{P: 6, S: 64, NumGPUs: 2, SkipFarField: true}
	cfg.CPU.Cores = 10
	return core.NewSolver(sys, cfg)
}

func TestSearchConvergesToBalance(t *testing.T) {
	s := newHeteroSolver(4000, 1)
	b := New(Config{Strategy: StrategyFull}, s.Sys.Len())
	var steps int
	for steps = 0; steps < 40 && b.State == Search; steps++ {
		st := s.Solve()
		b.AfterStep(s, StepTimes{CPU: st.CPUTime, GPU: st.GPUTime})
	}
	if b.State == Search {
		t.Fatalf("search did not converge in %d steps", steps)
	}
	// After convergence the CPU and GPU times should be reasonably close
	// or the S range exhausted.
	st := s.Solve()
	gap := st.CPUTime - st.GPUTime
	if gap < 0 {
		gap = -gap
	}
	if gap > 0.8*st.Compute {
		t.Fatalf("converged S=%d leaves times far apart: cpu=%g gpu=%g",
			s.S(), st.CPUTime, st.GPUTime)
	}
	if steps > 25 {
		t.Fatalf("binary search took %d steps (paper: <15 typical)", steps)
	}
}

func TestSearchImprovesOverInitialS(t *testing.T) {
	// Start from a deliberately bad S; the search must find something
	// substantially better.
	sys := distrib.Plummer(4000, 1, 1, 2)
	cfg := core.Config{P: 6, S: 4, NumGPUs: 2, SkipFarField: true}
	cfg.CPU.Cores = 10
	s := core.NewSolver(sys, cfg)
	first := s.Solve()
	b := New(Config{Strategy: StrategyFull}, sys.Len())
	b.AfterStep(s, StepTimes{CPU: first.CPUTime, GPU: first.GPUTime})
	best := first.Compute
	for i := 0; i < 40 && b.State == Search; i++ {
		st := s.Solve()
		if st.Compute < best {
			best = st.Compute
		}
		b.AfterStep(s, StepTimes{CPU: st.CPUTime, GPU: st.GPUTime})
	}
	if best > first.Compute*0.8 {
		t.Fatalf("search barely improved: %g -> %g", first.Compute, best)
	}
}

func TestObservationDoesNothingWhenStable(t *testing.T) {
	s := newHeteroSolver(3000, 3)
	b := New(Config{Strategy: StrategyFull}, s.Sys.Len())
	b.State = Observation
	st := s.Solve()
	// Prime best.
	b.AfterStep(s, StepTimes{CPU: st.CPUTime, GPU: st.GPUTime})
	rep := b.AfterStep(s, StepTimes{CPU: st.CPUTime, GPU: st.GPUTime})
	if rep.EnforcedS || rep.FineGrain || rep.Rebuilt {
		t.Fatalf("observation state acted on a stable time: %+v", rep)
	}
}

func TestObservationTriggersEnforceOnRegression(t *testing.T) {
	s := newHeteroSolver(3000, 4)
	b := New(Config{Strategy: StrategyFull}, s.Sys.Len())
	b.State = Observation
	st := s.Solve()
	b.AfterStep(s, StepTimes{CPU: st.CPUTime, GPU: st.GPUTime})
	// Report a 30% regression.
	rep := b.AfterStep(s, StepTimes{CPU: st.CPUTime * 1.3, GPU: st.GPUTime * 1.3})
	if !rep.EnforcedS {
		t.Fatalf("regression did not trigger Enforce_S: %+v", rep)
	}
	if rep.LBTime <= 0 {
		t.Fatal("enforcement reported zero LB cost")
	}
}

func TestFineGrainedOptimizeImprovesPrediction(t *testing.T) {
	// Build an imbalanced tree (CPU far heavier than GPU), then check the
	// fine-grained pass improves the predicted compute time.
	sys := distrib.Plummer(6000, 1, 1, 5)
	cfg := core.Config{P: 6, S: 8, NumGPUs: 4, SkipFarField: true}
	cfg.CPU.Cores = 4
	s := core.NewSolver(sys, cfg)
	s.Solve() // observe coefficients
	cpu0, gpu0 := s.Predict()
	pred0 := cpu0
	if gpu0 > pred0 {
		pred0 = gpu0
	}
	b := New(Config{Strategy: StrategyFull}, sys.Len())
	var rep Report
	lb := b.fineGrainedOptimize(s, &rep)
	cpu1, gpu1 := s.Predict()
	pred1 := cpu1
	if gpu1 > pred1 {
		pred1 = gpu1
	}
	if pred1 > pred0*1.0001 {
		t.Fatalf("fine-grained made prediction worse: %g -> %g", pred0, pred1)
	}
	if lb < 0 {
		t.Fatal("negative LB time")
	}
	if err := s.Tree.Validate(); err != nil {
		t.Fatalf("tree invalid after FGO: %v", err)
	}
}

func TestStrategyStaticFreezes(t *testing.T) {
	s := newHeteroSolver(2000, 6)
	b := New(Config{Strategy: StrategyStatic}, s.Sys.Len())
	for i := 0; i < 40 && b.State == Search; i++ {
		st := s.Solve()
		b.AfterStep(s, StepTimes{CPU: st.CPUTime, GPU: st.GPUTime})
	}
	if b.State != Frozen {
		t.Fatalf("static strategy in state %v after search", b.State)
	}
	sBefore := s.S()
	rep := b.AfterStep(s, StepTimes{CPU: 100, GPU: 1})
	if rep.Rebuilt || rep.EnforcedS || rep.FineGrain || s.S() != sBefore {
		t.Fatalf("frozen balancer acted: %+v", rep)
	}
}

func TestGeomMid(t *testing.T) {
	if m := geomMid(4, 4096); m < 100 || m > 200 {
		t.Fatalf("geomMid(4,4096)=%d, want ~128", m)
	}
	if m := geomMid(7, 7); m != 7 {
		t.Fatalf("geomMid(7,7)=%d", m)
	}
	if m := geomMid(3, 5); m < 3 || m > 5 {
		t.Fatalf("geomMid out of range: %d", m)
	}
}

// TestWorkflowTransitions walks the §VII.B state machine explicitly:
// Search -> (times within switch threshold) -> Incremental ->
// (dominant unit flips) -> Observation -> (regression, enforce+predict
// insufficient) -> Incremental again.
func TestWorkflowTransitions(t *testing.T) {
	s := newHeteroSolver(3000, 8)
	b := New(Config{Strategy: StrategyFull}, s.Sys.Len())

	if b.State != Search {
		t.Fatalf("initial state %v", b.State)
	}
	// Feed a balanced step: search should finish immediately.
	rep := b.AfterStep(s, StepTimes{CPU: 1.0, GPU: 1.0})
	if b.State != Incremental {
		t.Fatalf("after balanced step: state %v, want incremental (rep %+v)", b.State, rep)
	}
	// CPU dominates: S must increase and state stays incremental.
	s0 := s.S()
	rep = b.AfterStep(s, StepTimes{CPU: 2.0, GPU: 1.0})
	if b.State != Incremental || rep.NewS <= s0 {
		t.Fatalf("incremental did not raise S: %+v (state %v)", rep, b.State)
	}
	// Dominance flips: enter observation.
	rep = b.AfterStep(s, StepTimes{CPU: 1.0, GPU: 2.0})
	if b.State != Observation {
		t.Fatalf("dominance flip did not enter observation: %v", b.State)
	}
	// Stable steps: nothing happens.
	rep = b.AfterStep(s, StepTimes{CPU: 1.0, GPU: 2.0})
	if rep.EnforcedS || rep.Rebuilt {
		t.Fatalf("observation acted on stable step: %+v", rep)
	}
	// Large regression: Enforce_S fires; with prediction still far off,
	// the balancer queues a return to incremental.
	rep = b.AfterStep(s, StepTimes{CPU: 10.0, GPU: 20.0})
	if !rep.EnforcedS {
		t.Fatalf("regression did not trigger enforcement: %+v", rep)
	}
	// Against a best far below what the model predicts, a regression that
	// Enforce_S and the fine-grained pass cannot bring under the threshold
	// returns to incremental, led by the unit the prediction finds slower:
	// a step that unit dominates nudges S, it is no flip.
	b.AfterStep(s, StepTimes{CPU: 1e-9, GPU: 2e-9})
	if rep = b.AfterStep(s, StepTimes{CPU: 1e-8, GPU: 2e-8}); !rep.EnforcedS || b.State != Incremental {
		t.Fatalf("unrecoverable regression: %+v (state %v), want a return to incremental", rep, b.State)
	}
	next := StepTimes{CPU: 1e-9, GPU: 2e-9}
	if cpu, gpu := b.predict(s); cpu >= gpu {
		next = StepTimes{CPU: 2e-9, GPU: 1e-9}
	}
	if rep = b.AfterStep(s, next); b.State != Incremental || !rep.Rebuilt {
		t.Fatalf("first incremental step after the fallback: %+v (state %v), want a nudge", rep, b.State)
	}
}
