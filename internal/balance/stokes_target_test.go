package balance

import (
	"math/rand"
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/geom"
	"afmm/internal/stokes"
	"afmm/internal/vgpu"
)

// The balancer must drive any Target; the Stokes solver is the second
// implementation (used by the Figure 10 ablation).
func TestBalancerDrivesStokesSolver(t *testing.T) {
	sys := distrib.UniformCube(3000, 1, 11)
	rng := rand.New(rand.NewSource(12))
	for i := range sys.Aux {
		sys.Aux[i] = geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	}
	cfg := stokes.Config{P: 4, S: 64, NumGPUs: 2, GPUSpec: vgpu.ScaledSpec(1.0 / 64)}
	cfg.CPU.Cores = 10
	s := stokes.NewSolver(sys, cfg)
	s.Cfg.DryRun = true
	var tgt Target = s
	if tgt.S() != 64 || tgt.Cores() != 10 {
		t.Fatalf("target surface wrong: S=%d cores=%d", tgt.S(), tgt.Cores())
	}

	b := New(Config{Strategy: StrategyFull}, sys.Len())
	for i := 0; i < 40 && b.State == Search; i++ {
		st := s.Solve()
		b.AfterStep(s, StepTimes{CPU: st.CPUTime, GPU: st.GPUTime})
	}
	if b.State == Search {
		t.Fatal("search did not converge on the Stokes target")
	}
	if err := s.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Prediction must be wired through the Stokes cost model.
	cpu, gpu := tgt.Predict()
	if cpu <= 0 || gpu <= 0 {
		t.Fatalf("stokes prediction degenerate: %v %v", cpu, gpu)
	}
	// FGO through the interface keeps the tree valid.
	var rep Report
	b.fineGrainedOptimize(tgt, &rep)
	if err := s.Tree.Validate(); err != nil {
		t.Fatalf("tree invalid after FGO on stokes target: %v", err)
	}
}
