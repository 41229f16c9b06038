package afmm_test

import (
	"fmt"

	"afmm"
)

// ExampleNewGravitySolver demonstrates a single heterogeneous AFMM solve
// and the timing quantities the load balancer consumes.
func ExampleNewGravitySolver() {
	sys := afmm.Plummer(2000, 1.0, 1.0, 42)
	cfg := afmm.GravityConfig{P: 6, S: 32, NumGPUs: 2}
	cfg.CPU.Cores = 10
	solver := afmm.NewGravitySolver(sys, cfg)
	times := solver.Solve()
	fmt.Println(times.Compute > 0)
	fmt.Println(times.Compute >= times.CPUTime && times.Compute >= times.GPUTime)
	// Output:
	// true
	// true
}

// ExampleNewBalancer runs the full load-balancing state machine for a few
// steps, as the simulation drivers do internally.
func ExampleNewBalancer() {
	sys := afmm.Plummer(3000, 1, 1, 42)
	cfg := afmm.GravityConfig{P: 4, S: 64, NumGPUs: 2, DryRun: true}
	cfg.CPU.Cores = 10
	solver := afmm.NewGravitySolver(sys, cfg)
	bal := afmm.NewBalancer(afmm.BalanceConfig{Strategy: afmm.StrategyFull}, sys.Len())
	for i := 0; i < 25; i++ {
		st := solver.Solve()
		bal.AfterStep(solver, afmm.BalanceStepTimes{CPU: st.CPUTime, GPU: st.GPUTime})
	}
	fmt.Println(bal.State != 0) // left the initial Search state
	fmt.Println(solver.S() > 0)
	// Output:
	// true
	// true
}

// ExampleTune selects the expansion order and leaf capacity for a target
// accuracy using the cost model only.
func ExampleTune() {
	sys := afmm.Plummer(5000, 1, 1, 42)
	machine := afmm.GravityConfig{NumGPUs: 1}
	machine.CPU.Cores = 10
	choice := afmm.Tune(sys, afmm.TuneRequest{TargetRMSError: 1e-4, Machine: machine})
	fmt.Println(choice.P >= 4 && choice.P <= 10)
	fmt.Println(choice.S > 0)
	// Output:
	// true
	// true
}
